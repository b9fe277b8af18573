(* The benchmark's metric declarations: one row per metric, with its
   unit, its direction, the workloads it is measured on and — for an
   end-to-end metric — the share by which it may worsen before a
   change counts as a regression.  [gated] marks the end-to-end
   metrics listed in BENCHMARK.json: those are measured on every
   workload and are never 0, so a result line can carry all of them.
   [exact] marks the counts that repeat exactly for a seed: compared
   on the same seed, any worsening is a regression, whatever the
   bound.  The bound of a gated count is instead the smallest that
   the spread of its value across seeds allows.  The smoke rule checks
   BENCHMARK.json against this table. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** [Some b] for an end-to-end metric *)
  gated : bool;  (** end-to-end metric listed in BENCHMARK.json *)
  exact : bool;  (** repeats exactly for a seed *)
  applies : string list;
}

let serve_zipf = "serve_zipf"
let serve_cold = "serve_cold"
let planner_conj = "planner_conj"
let wal_mixed = "wal_mixed"
let workloads = [ serve_zipf; serve_cold; planner_conj; wal_mixed ]

let e2e ?(gated = false) ?(exact = false) ?(applies = workloads) name unit_ better bound =
  { name; unit_; better; bound = Some bound; gated; exact; applies }

let layer ?(applies = workloads) ?(better = Lower) name unit_ =
  { name; unit_; better; bound = None; gated = false; exact = false; applies }

let serving = [ serve_zipf; serve_cold ]
let reads = [ serve_zipf; serve_cold; planner_conj ]

let end_to_end =
  [
    e2e ~gated:true "setup_s" "s" Lower 0.25;
    e2e ~gated:true "throughput_ops" "ops/s" Higher 0.25;
    e2e ~applies:reads "query_throughput_qps" "q/s" Higher 0.25;
    e2e ~applies:[ wal_mixed ] "mixed_throughput_ops" "ops/s" Higher 0.25;
    e2e "query_p50_ms" "ms" Lower 0.25;
    e2e "query_p99_ms" "ms" Lower 0.25;
    e2e ~applies:[ wal_mixed ] "update_p50_ms" "ms" Lower 0.25;
    e2e ~applies:[ wal_mixed ] "update_p99_ms" "ms" Lower 0.25;
    e2e ~gated:true ~exact:true "block_ios_per_query" "ios" Lower 0.025;
    e2e ~gated:true ~exact:true "bits_read_per_answer_bit" "ratio" Lower 0.01;
    e2e ~exact:true ~applies:[ wal_mixed ] "write_ios_per_update" "ios" Lower 0.0;
    e2e ~gated:true ~exact:true "space_bits_per_symbol" "bits" Lower 0.015;
    e2e ~gated:true "peak_rss_mb" "MB" Lower 0.2;
    e2e ~exact:true "error_rate" "ratio" Lower 0.0;
  ]

let planner = [ planner_conj ]
let wal = [ wal_mixed ]

let per_layer =
  [
    layer ~applies:serving "serve.router_self_ms_per_batch" "ms";
    layer ~applies:serving "serve.shard_busy_ms_per_batch" "ms";
    layer ~applies:serving "serve.shard_busy_imbalance" "ratio";
    layer ~applies:serving "serve.materialize_ms_per_query" "ms";
    layer ~applies:serving ~better:Higher "serve.batch_size_mean" "count";
    layer ~applies:serving "serve.queue_wait_p99_ms" "ms";
    layer ~applies:serving "serve.generator_lag_p99_ms" "ms";
    layer ~applies:serving "indexing.batch_self_ms_per_query" "ms";
    layer ~applies:serving ~better:Higher "indexing.cache_hit_ratio" "ratio";
    layer ~applies:serving "indexing.cache_requests_per_query" "count";
    layer "secidx.directory_ms_per_query" "ms";
    layer "secidx.rank_select_ms_per_query" "ms";
    layer "secidx.payload_ms_per_query" "ms";
    layer "secidx.phase_calls_per_query" "count";
    layer "bitio.decoder_refills_per_query" "count";
    layer "cbitmap.bits_read_per_query" "bits";
    layer "iosim.block_reads_per_query" "ios";
    layer ~better:Higher "iosim.pool_hit_rate" "ratio";
    layer "iosim.seeks_per_query" "count";
    layer "iosim.pool_evictions_per_query" "count";
    layer ~better:Higher "iosim.prefetch_useful_ratio" "ratio";
    layer ~applies:planner "planner.plan_ms_per_query" "ms";
    layer ~applies:planner "planner.exec_self_ms_per_query" "ms";
    layer ~applies:planner "planner.plans_considered_per_query" "count";
    layer ~applies:planner "planner.exact_step_share" "ratio";
    layer ~applies:planner "planner.prefilter_step_share" "ratio";
    layer ~applies:planner "planner.residual_step_share" "ratio";
    layer ~applies:planner ~better:Higher "planner.count_fastpath_ratio" "ratio";
    layer ~applies:planner "planner.io_estimate_error_p90" "ratio";
    layer ~applies:planner "ridint.verified_rows_per_query" "count";
    layer ~applies:planner "ridint.fp_rejected_ratio" "ratio";
    layer ~applies:wal "wal.commit_ms_p50" "ms";
    layer ~applies:wal "wal.flush_ms_mean" "ms";
    layer ~applies:wal "wal.compaction_ms_mean" "ms";
    layer ~applies:wal "wal.flushes_per_kop" "count";
    layer ~applies:wal "wal.compactions_per_kop" "count";
    layer ~applies:wal "wal.log_write_ios_per_op" "ios";
    layer ~applies:wal "wal.index_write_ios_per_op" "ios";
    layer ~applies:wal "wal.log_bits_per_op" "bits";
    layer ~applies:wal "wal.level_runs" "count";
    layer ~applies:wal "wal.query_block_reads" "ios";
    layer "obs.trace_overhead_pct" "%";
    layer "obs.trace_dropped_events" "count";
    layer "obs.unattributed_pct" "%";
  ]

let all = end_to_end @ per_layer
let find name = List.find (fun m -> m.name = name) all
let gated = List.filter (fun m -> m.gated) end_to_end
let applies m w = List.mem w m.applies
let better_string = function Lower -> "lower" | Higher -> "higher"
