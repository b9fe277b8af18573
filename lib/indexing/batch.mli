(** Batch query planning (PR 5): turn a batch of [lo, hi] range
    queries into the minimal set of distinct clamped queries plus the
    fan-out map back to caller slots, so a structure executes each
    distinct query once — and, via {!Cache}, decodes each touched
    extent once — per batch.

    The planner clamps with {!Common.clamp_range} (the documented
    invalid-range rule all builders share), drops empty ranges,
    dedupes, and sorts ascending, so execution sweeps the alphabet
    left to right with a warm pool.  Answers for caller slots whose
    range clamps to nothing are the empty {!Answer.Direct}. *)

type plan = {
  queries : int;  (** caller slots, i.e. [Array.length ranges] *)
  uniq : (int * int) array;
      (** distinct clamped ranges, sorted by [(lo, hi)] *)
  class_of : int array;
      (** caller slot -> index into [uniq], or {!empty_class} *)
}

val empty_class : int

val normalize : sigma:int -> (int * int) array -> plan

(** [fan_out plan uniq_answers] maps each caller slot to its class
    answer (shared, not copied); empty classes get
    [Answer.Direct Posting.empty].  Raises [Invalid_argument] if
    [uniq_answers] does not have one answer per [plan.uniq] entry. *)
val fan_out : plan -> Answer.t array -> Answer.t array

(** Per-batch memoized decode, keyed by whatever identifies one extent
    of the structure (stream index, block id, ...). *)
module Cache : sig
  type ('k, 'v) t

  val create : decode:('k -> 'v) -> unit -> ('k, 'v) t

  (** Memoized [decode]: at most one decode per distinct key. *)
  val get : ('k, 'v) t -> 'k -> 'v

  (** Is the key already decoded (no decode triggered)?  Prefetch
      planning skips cached extents through this. *)
  val mem : ('k, 'v) t -> 'k -> bool
end
