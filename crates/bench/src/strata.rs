//! Stratification helpers shared by Table 5, Figures 6–9 and the serve
//! backend: key functions from address to stratum index, per-stratum
//! routed limits, and stratified tables and estimates over a window.

use crate::context::ReproContext;
use ghosts_core::{estimate_stratified, ContingencyTable, StratifiedEstimate};
use ghosts_net::{Industry, Rir, SubnetSet};
use ghosts_pipeline::dataset::WindowData;
use std::collections::BTreeSet;

/// The stratifications of §3.4 / Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strat {
    /// No stratification (one stratum).
    None,
    /// By responsible RIR.
    Rir,
    /// By registrant country.
    Country,
    /// By allocation year.
    AllocAge,
    /// By allocation prefix length.
    PrefixSize,
    /// By whois industry class.
    Industry,
    /// Statically vs dynamically assigned space (per-/24 pool flag).
    StaticDynamic,
}

impl Strat {
    /// Display name as in Table 5's header.
    pub fn name(&self) -> &'static str {
        match self {
            Strat::None => "None",
            Strat::Rir => "RIR",
            Strat::Country => "Country",
            Strat::AllocAge => "Age",
            Strat::PrefixSize => "Prefix size",
            Strat::Industry => "Industry",
            Strat::StaticDynamic => "Stat/Dyn",
        }
    }
}

/// A materialised stratification: labels, an address→stratum key, and
/// per-stratum routed limits.
pub struct StratInfo<'a> {
    /// Stratum display labels.
    pub labels: Vec<String>,
    /// Address → stratum index (None = outside all strata). `Send + Sync`
    /// so a materialised stratification can be shared with worker threads.
    pub key: Box<dyn Fn(u32) -> Option<usize> + Send + Sync + 'a>,
    /// Routed addresses per stratum (truncation limits).
    pub addr_limits: Vec<u64>,
    /// Routed /24s per stratum.
    pub subnet_limits: Vec<u64>,
}

/// Builds a stratification over the context's registry and ground truth.
pub fn build<'a>(ctx: &'a ReproContext, strat: Strat) -> StratInfo<'a> {
    let gt = &ctx.scenario.gt;
    let registry = &gt.registry;
    // The allocation holding `addr`, the source of every registry key.
    let alloc = move |addr: u32| registry.lookup(addr).map(|(_, a)| a);
    match strat {
        Strat::None => StratInfo {
            labels: vec!["all".into()],
            key: Box::new(|_| Some(0)),
            addr_limits: vec![gt.routed.address_count()],
            subnet_limits: vec![gt.routed.subnet24_count()],
        },
        Strat::Rir => keyed(ctx, Rir::ALL.iter().map(Rir::name), move |addr| {
            let rir = alloc(addr)?.rir;
            Rir::ALL.iter().position(|r| *r == rir)
        }),
        Strat::Country => {
            let codes: BTreeSet<&str> = registry
                .allocations()
                .iter()
                .map(|a| a.country.as_str())
                .collect();
            let codes: Vec<&str> = codes.into_iter().collect();
            keyed(ctx, codes.clone(), move |addr| {
                let code = alloc(addr)?.country;
                codes.binary_search(&code.as_str()).ok()
            })
        }
        Strat::AllocAge => keyed(ctx, 1983..=2014u16, move |addr| {
            alloc(addr).map(|a| (a.alloc_year - 1983) as usize)
        }),
        Strat::PrefixSize => keyed(ctx, (8..=24u8).map(|l| format!("/{l}")), move |addr| {
            let l = alloc(addr)?.prefix.len();
            (8..=24).contains(&l).then(|| (l - 8) as usize)
        }),
        Strat::Industry => keyed(ctx, Industry::ALL.iter().map(Industry::name), move |addr| {
            let industry = alloc(addr)?.industry;
            Industry::ALL.iter().position(|i| *i == industry)
        }),
        Strat::StaticDynamic => keyed(ctx, ["static", "dynamic"], move |addr| {
            gt.block_of_addr(addr).map(|b| usize::from(b.dynamic_pool))
        }),
    }
}

/// A stratification from its labels and key: derives the per-stratum
/// routed limits and boxes the key.
fn keyed<'a, L, F>(ctx: &ReproContext, labels: impl IntoIterator<Item = L>, key: F) -> StratInfo<'a>
where
    L: ToString,
    F: Fn(u32) -> Option<usize> + Send + Sync + 'a,
{
    let labels: Vec<String> = labels.into_iter().map(|l| l.to_string()).collect();
    let (addr_limits, subnet_limits) = limits_by(ctx, &key, labels.len());
    StratInfo {
        labels,
        key: Box::new(key),
        addr_limits,
        subnet_limits,
    }
}

/// Per-stratum routed limits via the ground truth's per-/24 blocks (every
/// routed /24 has a block, so summing 256 addresses per block reproduces
/// the routed totals exactly).
fn limits_by<F: Fn(u32) -> Option<usize>>(
    ctx: &ReproContext,
    key: F,
    n: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut addrs = vec![0u64; n];
    let mut subs = vec![0u64; n];
    for block in ctx.scenario.gt.blocks() {
        let s = key(block.subnet << 8);
        if let Some((a, b)) = s.and_then(|s| addrs.get_mut(s).zip(subs.get_mut(s))) {
            *a += 256;
            *b += 1;
        }
    }
    (addrs, subs)
}

/// The per-stratum contingency tables of a window at either granularity,
/// with the matching routed limits — the input of a stratified estimate.
pub fn tables(
    data: &WindowData,
    info: &StratInfo<'_>,
    subnets: bool,
) -> (Vec<ContingencyTable>, Vec<u64>) {
    let n = info.labels.len();
    if subnets {
        let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
        let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
        let tables = ContingencyTable::stratified_from_subnet_sets(&refs, n, &info.key);
        (tables, info.subnet_limits.clone())
    } else {
        let tables = ContingencyTable::stratified_from_addr_sets(&data.addr_sets(), n, &info.key);
        (tables, info.addr_limits.clone())
    }
}

/// Stratified CR estimate of a window at either granularity.
pub fn estimate(
    ctx: &ReproContext,
    data: &WindowData,
    info: &StratInfo<'_>,
    subnets: bool,
) -> StratifiedEstimate {
    let (tables, limits) = tables(data, info, subnets);
    estimate_stratified(&tables, Some(&limits), &ctx.cr_config())
}
