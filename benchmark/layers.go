package main

import "fmt"

// workloadMetrics are the per-layer quantities only some workloads can
// measure. Every trace run emits all of them; a workload that does not
// reach the layer reports 0, which is the statement "this workload
// bypasses that mechanism".
var workloadMetrics = []struct{ name, unit string }{
	// session_real: spans around the UE, the NAS transport and the uploads.
	{"ue.attach_us_p50", "us"},
	{"ue.attach_us_p99", "us"},
	{"ue.detach_us_p50", "us"},
	{"ue.report_us_p50", "us"},
	{"wire.nas_rtt_us_p50", "us"},
	{"wire.nas_rtts_per_op", "count"},
	{"trace.residual_frac", "frac"},
	// storm_emu: result-struct tallies and the virtual-clock latency.
	{"ue.attempts_per_attach", "count"},
	{"ue.giveups", "count"},
	{"testbed.serial_cost_ratio", "ratio"},
	{"testbed.sim_attach_ms_p50", "ms"},
	{"testbed.sim_attach_ms_p99", "ms"},
	{"testbed.sim_attach_samples", "count"},
	// scale_emu, drive_emu: the emulator.
	{"testbed.sim_goodput_mbps", "Mbit/s"},
	{"testbed.sim_s_per_wall_s", "ratio"},
	{"testbed.fairness", "ratio"},
	{"netem.shard_speedup_k2", "ratio"},
	{"netem.cpu_inflation_k2", "ratio"},
	{"ue.sessions_per_drive", "count"},
	{"ran.handovers_per_drive", "count"},
	{"billing.cycles_per_drive", "count"},
	{"billing.gap_frac", "frac"},
	{"billing.cost_delta_ref", "refop"},
	{"mptcp.cost_delta_ref", "refop"},
	{"apps.iperf_mbps_mno", "Mbit/s"},
}

// emitWorkloadMetrics adds every workloadMetrics entry, taking values from
// got and 0 for the rest. A key outside the table is a bug in a workload.
func emitWorkloadMetrics(m *metricSet, got map[string]float64) {
	known := 0
	for _, wm := range workloadMetrics {
		v, ok := got[wm.name]
		if ok {
			known++
		}
		m.add(wm.name, wm.unit, v)
	}
	if known != len(got) {
		panic(fmt.Sprintf("benchmark: workload emitted a metric outside workloadMetrics: %v", got))
	}
}

// genericLayers adds the quantities every workload gets the same way: obs
// counter deltas over the measured stretch, per op.
func genericLayers(m *metricSet, lc layerCtx) {
	d, ops := lc.delta, float64(lc.ops)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	frames := d["wire_frames_sent_total"] + d["wire_frames_received_total"]
	m.add("wire.frames_per_op", "count", frames/ops)
	m.add("wire.bytes_per_op", "B", (d["wire_bytes_sent_total"]+d["wire_bytes_received_total"])/ops)
	m.add("wire.retries", "count", d["wire_client_retries_total"])
	m.add("wire.redials", "count", d["wire_client_redials_total"])

	full, resumed := d["broker_attach_granted_total"], d["broker_resume_granted_total"]
	rateShed, queueShed := d["broker_admission_rate_shed_total"], d["broker_admission_queue_shed_total"]
	shed := rateShed + queueShed
	m.add("broker.batch_items_per_flush", "count", ratio(d["broker_batch_items_total"], d["broker_batch_flushes_total"]))
	m.add("broker.authcache_hit_ratio", "ratio", ratio(d["broker_authcache_hits_total"], d["broker_authcache_hits_total"]+d["broker_authcache_misses_total"]))
	m.add("broker.resume_share", "frac", ratio(resumed, full+resumed))
	m.add("broker.shed_frac", "frac", ratio(shed, shed+full+resumed+d["broker_attach_denied_total"]+d["broker_resume_denied_total"]))
	m.add("broker.queue_shed_share", "frac", ratio(queueShed, shed))
	m.add("broker.state_kb_per_session", "KiB", lc.liveKB/ops)

	m.add("billing.reports_per_op", "count", d["broker_reports_ingested_total"]/ops)
	m.add("billing.mismatches", "count", d["broker_report_mismatches_total"])

	m.add("netem.packets_per_op", "count", d["netem_packets_sent_total"]/ops)
	m.add("netem.packets_per_s", "1/s", d["netem_packets_sent_total"]/lc.all.workWall().Seconds())
	m.add("netem.drops_queue_per_op", "count", d["netem_drops_queue_total"]/ops)
	m.add("netem.xshard_packets_per_op", "count", d["netem_xshard_packets_total"]/ops)
}

// costRef measures fn as n segments and returns its median wall and CPU
// cost per op in refops.
func costRef(ref *refKernel, n int, fn func(i int) (ops int, err error)) (wall, cpu float64, err error) {
	t, err := measure(ref, 0, n, func(i int) (int, int, error) {
		ops, err := fn(i)
		return ops, 0, err
	})
	if err != nil {
		return 0, 0, err
	}
	return t.opCostRef(), t.cpuCostRef(), nil
}
