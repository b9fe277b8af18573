(** A built secondary index, packaged uniformly so that the test
    harness and the benchmarks can drive every structure (the paper's
    and all baselines) through one interface and read I/O costs off
    the shared device counters.

    Four entry points: {!query_cold} (one range from a cold pool, with
    its stats), {!query_batch} (a cold batch), {!query_batch_warm}
    (the serving path) and {!verified_query} (detect-or-repair).  For
    materialized positions apply [Answer.to_posting ~n] to
    {!query_cold}'s answer. *)

type t = {
  name : string;
  device : Iosim.Device.t;
  n : int;  (** string length *)
  sigma : int;
  size_bits : int;  (** space used by the structure, in bits *)
  query : lo:int -> hi:int -> Answer.t;
  batch : ((int * int) array -> Answer.t array) option;
      (** Structure-specific batched execution: answers [ranges]
          slot-for-slot, decoding each touched extent once for the
          whole batch (see {!Batch}).  Every structure with a hook
          runs the same range evaluator as its [query], with a fetch
          that reads each stored bitmap through {!Batch.Cache} and
          prefetches uncached runs, so it agrees exactly with [query]
          run range by range; the readahead's directory reads are the
          one charge it adds (see {!query_batch}).  [None] means
          {!query_batch} falls back to the generic planner (dedup +
          shared pool). *)
  integrity : Integrity.t option;
      (** Detect-or-repair hooks over the structure's on-device
          extents; [None] means the instance has no integrity layer
          and {!verified_query} degrades to a plain query. *)
}

(** Run a query cold (pool cleared, counters reset) and return the
    answer together with the I/O statistics of just that query. *)
val query_cold : t -> lo:int -> hi:int -> Answer.t * Iosim.Stats.t

(** Answer a batch of ranges in one pass: the pool is cleared and the
    counters reset once, then the structure's [batch] hook (or the
    generic {!Batch.run} planner) answers every slot.  Answers are
    identical — constructor included — to running [query] per slot;
    the returned stats are the whole batch's, which is what the
    amortization claims of PR 5 price.

    A one-range batch is not charged exactly what {!query_cold}
    charges for that range.  A structure that prefetches its uncached
    runs ({!Stream_table.prefetch_uncached}) first reads each run's
    payload span from the directory: the entry of its first stream and
    of the stream after its last ({!Stream_table.payload_span}).  So
    the batch reads [query_cold]'s bits plus those entries' bits.
    [test_secidx_static.ml] pins this bit for bit on nine ranges of a
    static index, where the extra bits are 54 to 424 a range and the
    block I/Os are equal. *)
val query_batch : t -> (int * int) array -> Answer.t array * Iosim.Stats.t

(** Warm batch for the serving path (PR 6): same planning and answers
    as {!query_batch}, but the pool is not cleared and the counters
    are not reset — a shard worker serves batch after batch with a
    warm pool, and its device counters accumulate over the whole run
    (read them via [Iosim.Device.stats] at quiescence). *)
val query_batch_warm : t -> (int * int) array -> Answer.t array

(** Outcome of a {!verified_query}: the answer over verified extents;
    the answer after a successful counted repair (with the repair cost
    in block I/Os); or typed, detected corruption.  Never a silently
    wrong answer. *)
type outcome =
  | Ok of Answer.t
  | Repaired of Answer.t * int
  | Corrupt of string

(** Scrub, repair what the scrub found, and answer — all under the
    device's bounded-retry policy ([attempts], default 3) so transient
    read faults are retried rather than fatal.  See DESIGN.md, "Fault
    model and integrity". *)
val verified_query : ?attempts:int -> t -> lo:int -> hi:int -> outcome
