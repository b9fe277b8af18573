(** Open-loop serving driver (PR 6): replays a {!Workload.Traffic}
    schedule against a {!Router}.  Latency is completion minus
    *scheduled* arrival (queueing delay included — no coordinated
    omission); queries due together dispatch as one batch through the
    router's shared-decode path, capped at [batch_window].

    PR 9 adds tail-latency attribution: queries at or above the
    [tail_quantile] latency are decomposed into queue wait plus
    service, and service is split across the per-phase metrics
    histograms' deltas measured around each batch, with the
    uninstrumented remainder reported as ["other"]. *)

type attribution = {
  quantile : float;  (** the requested tail quantile, in [0;1] *)
  threshold : float;
      (** exact order-statistic latency at [quantile] (seconds); the
          tail is every query at or above it, so it is never empty *)
  tail_queries : int;
  tail_seconds : float;  (** summed latency of the tail queries *)
  components : (string * float) list;
      (** ["queue_wait"], ["phase_<name>"]..., ["other"], sorted by
          seconds descending; sums to [tail_seconds] up to float
          rounding.  Phase shares are meaningful when the metrics
          clock is wallclock ({!Obs.Metrics.set_clock}); under the
          default logical clock the split degrades to queue_wait +
          other. *)
}

type result = {
  completed : int;
  wall : float;  (** first arrival to last completion, seconds *)
  offered_duration : float;  (** schedule length, seconds *)
  throughput : float;  (** completed / wall, queries per second *)
  latency : Obs.Histogram.t;
  batches : int;
  max_batch : int;
  checksum : int;
      (** Order-independent digest over all answer postings; must
          agree across shard counts and modes. *)
  attribution : attribution;
}

(** Batches hold at most 128 queries; the attributed tail is the
    0.99 quantile and above.  Raises on an empty schedule. *)
val run : Router.t -> Workload.Traffic.t -> result
