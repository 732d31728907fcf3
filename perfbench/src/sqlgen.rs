//! SSB query text with seeded literals.
//!
//! Each of the 13 SSB shapes keeps its joins, grouping and ordering;
//! only the constants (year, month, week, discount band, quantity,
//! region, nation, city, manufacturer, category, brand) are drawn from
//! the generator, within the domains the SSB data generator produces.

use robustq_serve::rand::rngs::StdRng;
use robustq_serve::rand::Rng;
use robustq_storage::gen::{city_name, NATIONS, REGIONS};
use robustq_workloads::SsbQuery;

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

struct Draw<'a>(&'a mut StdRng);

impl Draw<'_> {
    fn year(&mut self) -> u32 {
        self.0.gen_range(1992..=1998u32)
    }

    /// First year of a six-year range inside 1992–1998.
    fn year_span(&mut self) -> u32 {
        self.0.gen_range(1992..=1993u32)
    }

    fn discount(&mut self) -> u32 {
        self.0.gen_range(1..=8u32)
    }

    fn quantity(&mut self) -> u32 {
        self.0.gen_range(20..=30u32)
    }

    fn region(&mut self) -> usize {
        self.0.gen_range(0..REGIONS.len())
    }

    /// A nation of `region`.
    fn nation_in(&mut self, region: usize) -> &'static str {
        let in_region: Vec<&str> = NATIONS
            .iter()
            .filter(|(_, r)| *r == region)
            .map(|(n, _)| *n)
            .collect();
        in_region[self.0.gen_range(0..in_region.len())]
    }

    fn nation(&mut self) -> &'static str {
        let r = self.region();
        self.nation_in(r)
    }

    /// Two distinct cities of one nation.
    fn cities(&mut self) -> (String, String) {
        let n = self.nation();
        let a = self.0.gen_range(0..10u32);
        let b = (a + self.0.gen_range(1..10u32)) % 10;
        (city_name(n, a), city_name(n, b))
    }

    fn mfgr(&mut self) -> u32 {
        self.0.gen_range(1..=5u32)
    }

    fn category(&mut self) -> String {
        format!("MFGR#{}{}", self.mfgr(), self.0.gen_range(1..=5u32))
    }
}

/// SQL text of SSB query `q` with literals drawn from `rng`.
pub fn ssb_sql(q: SsbQuery, rng: &mut StdRng) -> String {
    let mut d = Draw(rng);
    match q {
        SsbQuery::Q1_1 => {
            let (y, disc, qty) = (d.year(), d.discount(), d.quantity());
            format!(
                "select sum(lo_extendedprice * lo_discount) as revenue \
                 from lineorder, date \
                 where lo_orderdate = d_datekey and d_year = {y} \
                 and lo_discount between {disc} and {} and lo_quantity < {qty}",
                disc + 2
            )
        }
        SsbQuery::Q1_2 => {
            let ym = d.year() * 100 + d.0.gen_range(1..=12u32);
            let (disc, qty) = (d.discount(), d.quantity());
            format!(
                "select sum(lo_extendedprice * lo_discount) as revenue \
                 from lineorder, date \
                 where lo_orderdate = d_datekey and d_yearmonthnum = {ym} \
                 and lo_discount between {disc} and {} \
                 and lo_quantity between {qty} and {}",
                disc + 2,
                qty + 9
            )
        }
        SsbQuery::Q1_3 => {
            let (week, y) = (d.0.gen_range(1..=52u32), d.year());
            let (disc, qty) = (d.discount(), d.quantity());
            format!(
                "select sum(lo_extendedprice * lo_discount) as revenue \
                 from lineorder, date \
                 where lo_orderdate = d_datekey and d_weeknuminyear = {week} \
                 and d_year = {y} and lo_discount between {disc} and {} \
                 and lo_quantity between {qty} and {}",
                disc + 2,
                qty + 9
            )
        }
        SsbQuery::Q2_1 => {
            let (cat, r) = (d.category(), REGIONS[d.region()]);
            format!(
                "select sum(lo_revenue) as revenue, d_year, p_brand1 \
                 from lineorder, date, part, supplier \
                 where lo_orderdate = d_datekey and lo_partkey = p_partkey \
                 and lo_suppkey = s_suppkey and p_category = '{cat}' \
                 and s_region = '{r}' \
                 group by d_year, p_brand1 order by d_year, p_brand1"
            )
        }
        SsbQuery::Q2_2 => {
            let (cat, b) = (d.category(), d.0.gen_range(1..=33u32));
            let r = REGIONS[d.region()];
            format!(
                "select sum(lo_revenue) as revenue, d_year, p_brand1 \
                 from lineorder, date, part, supplier \
                 where lo_orderdate = d_datekey and lo_partkey = p_partkey \
                 and lo_suppkey = s_suppkey \
                 and p_brand1 between '{cat}{b}' and '{cat}{}' \
                 and s_region = '{r}' \
                 group by d_year, p_brand1 order by d_year, p_brand1",
                b + 7
            )
        }
        SsbQuery::Q2_3 => {
            let (cat, b) = (d.category(), d.0.gen_range(1..=40u32));
            let r = REGIONS[d.region()];
            format!(
                "select sum(lo_revenue) as revenue, d_year, p_brand1 \
                 from lineorder, date, part, supplier \
                 where lo_orderdate = d_datekey and lo_partkey = p_partkey \
                 and lo_suppkey = s_suppkey and p_brand1 = '{cat}{b}' \
                 and s_region = '{r}' \
                 group by d_year, p_brand1 order by d_year, p_brand1"
            )
        }
        SsbQuery::Q3_1 => {
            let (r, y) = (REGIONS[d.region()], d.year_span());
            format!(
                "select c_nation, s_nation, d_year, sum(lo_revenue) as revenue \
                 from customer, lineorder, supplier, date \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_orderdate = d_datekey and c_region = '{r}' \
                 and s_region = '{r}' and d_year >= {y} and d_year <= {} \
                 group by c_nation, s_nation, d_year \
                 order by d_year asc, revenue desc",
                y + 5
            )
        }
        SsbQuery::Q3_2 => {
            let (n, y) = (d.nation(), d.year_span());
            format!(
                "select c_city, s_city, d_year, sum(lo_revenue) as revenue \
                 from customer, lineorder, supplier, date \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_orderdate = d_datekey and c_nation = '{n}' \
                 and s_nation = '{n}' \
                 and d_year >= {y} and d_year <= {} \
                 group by c_city, s_city, d_year \
                 order by d_year asc, revenue desc",
                y + 5
            )
        }
        SsbQuery::Q3_3 => {
            let ((a, b), y) = (d.cities(), d.year_span());
            format!(
                "select c_city, s_city, d_year, sum(lo_revenue) as revenue \
                 from customer, lineorder, supplier, date \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_orderdate = d_datekey \
                 and c_city in ('{a}', '{b}') \
                 and s_city in ('{a}', '{b}') \
                 and d_year >= {y} and d_year <= {} \
                 group by c_city, s_city, d_year \
                 order by d_year asc, revenue desc",
                y + 5
            )
        }
        SsbQuery::Q3_4 => {
            let (a, b) = d.cities();
            let ym = format!("{}{}", MONTHS[d.0.gen_range(0..12usize)], d.year());
            format!(
                "select c_city, s_city, d_year, sum(lo_revenue) as revenue \
                 from customer, lineorder, supplier, date \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_orderdate = d_datekey \
                 and c_city in ('{a}', '{b}') \
                 and s_city in ('{a}', '{b}') \
                 and d_yearmonth = '{ym}' \
                 group by c_city, s_city, d_year \
                 order by d_year asc, revenue desc"
            )
        }
        SsbQuery::Q4_1 => {
            let (r, m) = (REGIONS[d.region()], d.mfgr());
            format!(
                "select d_year, c_nation, \
                 sum(lo_revenue - lo_supplycost) as profit \
                 from date, customer, supplier, part, lineorder \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_partkey = p_partkey and lo_orderdate = d_datekey \
                 and c_region = '{r}' and s_region = '{r}' \
                 and p_mfgr in ('MFGR#{m}', 'MFGR#{}') \
                 group by d_year, c_nation order by d_year, c_nation",
                m % 5 + 1
            )
        }
        SsbQuery::Q4_2 => {
            let (r, y, m) = (REGIONS[d.region()], d.0.gen_range(1992..=1997u32), d.mfgr());
            format!(
                "select d_year, s_nation, p_category, \
                 sum(lo_revenue - lo_supplycost) as profit \
                 from date, customer, supplier, part, lineorder \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_partkey = p_partkey and lo_orderdate = d_datekey \
                 and c_region = '{r}' and s_region = '{r}' \
                 and d_year in ({y}, {}) \
                 and p_mfgr in ('MFGR#{m}', 'MFGR#{}') \
                 group by d_year, s_nation, p_category \
                 order by d_year, s_nation, p_category",
                y + 1,
                m % 5 + 1
            )
        }
        SsbQuery::Q4_3 => {
            let r = d.region();
            let (n, y, cat) = (d.nation_in(r), d.0.gen_range(1992..=1997u32), d.category());
            format!(
                "select d_year, s_city, p_brand1, \
                 sum(lo_revenue - lo_supplycost) as profit \
                 from date, customer, supplier, part, lineorder \
                 where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
                 and lo_partkey = p_partkey and lo_orderdate = d_datekey \
                 and c_region = '{}' and s_nation = '{n}' \
                 and d_year in ({y}, {}) and p_category = '{cat}' \
                 group by d_year, s_city, p_brand1 \
                 order by d_year, s_city, p_brand1",
                REGIONS[r],
                y + 1
            )
        }
    }
}
