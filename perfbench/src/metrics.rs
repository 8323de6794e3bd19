//! The metric catalogue: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names.

/// End-to-end metrics (untraced runs), host time unless noted.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). A workload that never calls into a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim_core.tick_edges_per_op", "count"),
    ("sim_core.ns_per_tick_edge", "ns"),
    ("sim_core.bare_edges_per_s", "1/s"),
    ("sim_core.run_for_ms", "ms"),
    ("sim_core.json.render_ms", "ms"),
    ("sim_core.json.parse_ms", "ms"),
    ("bitstream.build_ms", "ms"),
    ("bitstream.crc32_mb_s", "MB/s"),
    ("bitstream.parse_mb_s", "MB/s"),
    ("bitstream_codec.encode_ms", "ms"),
    ("bitstream_codec.decode_mb_s", "MB/s"),
    ("bitstream_codec.stored_over_raw", "ratio"),
    ("pdr.system.new_ms", "ms"),
    ("pdr.system.reconfigure_ms.ok.p50", "ms"),
    ("pdr.system.reconfigure_ms.lost_irq.p50", "ms"),
    ("pdr.system.reconfigure_ms.crc_mismatch.p50", "ms"),
    ("paper_err_pct", "%"),
    ("axi.interconnect.beats", "count"),
    ("axi.interconnect.data_stalls", "count"),
    ("axi.interconnect.data_idle", "count"),
    ("icap.frames_written", "count"),
    ("icap.corrupted_words", "count"),
    ("pdr.campaign.step_ms.seu.p50", "ms"),
    ("pdr.campaign.step_ms.timing_burst.p50", "ms"),
    ("pdr.campaign.step_ms.dma_stall.p50", "ms"),
    ("pdr.campaign.step_ms.dropped_irq.p50", "ms"),
    ("pdr.campaign.checkpoint_ms", "ms"),
    ("pdr.snapshot.bytes", "bytes"),
    ("pdr.recovery.retries", "count"),
    ("pdr.recovery.backoffs", "count"),
    ("pdr.recovery.scrubs", "count"),
    ("pdr.recovery.quarantines", "count"),
    ("pdr.scheduler.submit_us", "us"),
    ("pdr.scheduler.dispatch_ms.hit.p50", "ms"),
    ("pdr.scheduler.dispatch_ms.miss.p50", "ms"),
    ("pdr.scheduler.cache_hits", "count"),
    ("pdr.scheduler.cache_misses", "count"),
    ("pdr.scheduler.prefetch_hits", "count"),
    ("pdr.scheduler.cache_evictions", "count"),
    ("pdr.scheduler.bytes_fetched", "bytes"),
    ("pdr.fleet.calibrate_ms", "ms"),
    ("pdr.fleet.epoch_ms.p50", "ms"),
    ("pdr.fleet.report_ms", "ms"),
    ("pdr.fleet.stolen", "count"),
    ("pdr.fleet.rerouted", "count"),
    ("pdr.fleet.boards_quarantined", "count"),
    ("pdr.trace.reconfig_started", "count"),
    ("pdr.trace.reconfig_ok", "count"),
    ("pdr.trace.reconfig_failed", "count"),
    ("pdr.trace.dma_bursts", "count"),
    ("pdr.trace.dma_bytes", "bytes"),
    ("pdr.trace.crc_pass", "count"),
    ("pdr.trace.crc_fail", "count"),
    ("pdr.trace.crc_alarms", "count"),
    ("pdr.trace.faults_injected", "count"),
    ("pdr.trace.retries", "count"),
    ("pdr.trace.backoffs", "count"),
    ("pdr.trace.scrubs", "count"),
    ("pdr.trace.quarantines", "count"),
    ("pdr.trace.cache_hits", "count"),
    ("pdr.trace.cache_misses", "count"),
    ("pdr.trace.cache_evictions", "count"),
    ("pdr.trace.bytes_fetched", "bytes"),
    ("pdr.trace.bytes_evicted", "bytes"),
    ("pdr.trace.prefetches_armed", "count"),
    ("pdr.trace.codec_blocks", "count"),
    ("trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
    ("self_pct.bench", "%"),
    ("self_pct.sim_core", "%"),
    ("self_pct.sim_core.json", "%"),
    ("self_pct.pdr.system", "%"),
    ("self_pct.pdr.campaign", "%"),
    ("self_pct.pdr.scheduler", "%"),
    ("self_pct.pdr.fleet", "%"),
];

/// Unit of `name`, if it is a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
