(** A built secondary index, packaged uniformly so that the test
    harness and the benchmarks can drive every structure (the paper's
    and all baselines) through one interface and read I/O costs off
    the shared device counters.

    Two entry points: {!run} (a request of ranges from a cold or warm
    pool, with what it charged) and {!verified_query}
    (detect-or-repair).  For materialized positions apply
    [Answer.to_posting ~n] to an answer. *)

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
          run range by range.  {!run} calls it only for requests of
          two or more distinct ranges; [None] means {!run} uses the
          generic planner (dedup + shared pool) over [query]. *)
  integrity : Integrity.t option;
      (** Detect-or-repair hooks over the structure's on-device
          extents; [None] means the instance has no integrity layer
          and {!verified_query} degrades to a plain query. *)
}

(** [run t ~pool ranges] answers slot [i] with [ranges.(i)] and
    returns what this call charged.  [`Cold] clears the pool and
    resets the counters first; [`Warm] does neither, so a shard
    worker's pool stays warm and its device counters accumulate.

    Ranges clamp by {!Common.clamp_range}; a slot that clamps to
    nothing answers the empty [Direct].  If the ranges clamp to at
    most one distinct range, [query] runs on it, so a one-range
    request is charged exactly what that range costs alone.
    Otherwise the [batch] hook (or the generic planner over [query])
    decodes each touched extent once for the whole request.  Answers
    are identical, constructor included, to [query] per slot. *)
val run :
  t ->
  pool:[ `Cold | `Warm ] ->
  (int * int) array ->
  Answer.t array * Iosim.Stats.t

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
