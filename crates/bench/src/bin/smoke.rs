//! Quick single-benchmark smoke run (development aid): `smoke <name>`.

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "FFT".into());
    let b = streambench::by_name(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let opts = swp_bench::options_from_env();
    let t = std::time::Instant::now();
    let r = swp_bench::run_benchmark(&b, &opts);
    println!(
        "{}: nodes={} peeking={} pair={:?} II={} (lb {}, +{:.1}%, {}), cpu {:.3e}s/token",
        r.name,
        r.nodes,
        r.peeking,
        r.exec_pair,
        r.search.final_ii,
        r.search.lower_bound,
        r.search.relaxation_pct,
        if r.search.used_ilp {
            "ILP"
        } else {
            "heuristic"
        },
        r.cpu_secs_per_token,
    );
    for (c, s) in &r.swp {
        println!(
            "  SWP{c:<2}  speedup {:>7.2}x  time {:.3e}s  launches {:>5}  txn/access {:?}",
            s.speedup, s.time_secs, s.launches, s.transactions_per_access
        );
    }
    for s in [&r.swpnc, &r.serial] {
        println!(
            "  {:<6} speedup {:>7.2}x  time {:.3e}s  launches {:>5}  txn/access {:?}",
            s.label, s.speedup, s.time_secs, s.launches, s.transactions_per_access
        );
    }
    println!("  table2 bytes = {}", swp_bench::fmt_bytes(r.table2_bytes));
    println!("  wall time {:.1}s", t.elapsed().as_secs_f64());
}
