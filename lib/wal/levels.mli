(** Leveled store of sealed runs — the logarithmic method with a
    configurable fanout [f] (Yi, "Dynamic Indexability and Lower
    Bounds for Dynamic One-Dimensional Range Query Indexes").

    Level 0 receives flushed delta buffers; when a level accumulates
    [f] runs they are merged ({!Run.merge}) into one run pushed to the
    next level, cascading.  A run at level [i] therefore covers about
    [f^i] flushed batches, every level holds at most [f - 1] runs in
    steady state, and an update is rewritten [O(log_f (n/threshold))]
    times — the knob the [--wal] frontier sweeps against query cost.

    Compaction merges run under {!Iosim.Device.with_retries} with an
    exponentially backed-off cost charge ([2^attempt] block I/Os to
    [Stats.backoff_ios] per retry).  If the retry budget is exhausted
    the merge is {e abandoned}, not failed: the level stays overfull
    (queries remain correct, just slower — more runs to walk), the
    store is flagged {!pending}, and the merge is re-attempted on the
    next insert.  A crash ([Secidx_error.Crashed]) always propagates:
    recovery, not retry, is the answer to a kill. *)

type t

(** [create device ~sigma ~fanout ~retry_attempts] — an empty
    leveled store on [device].  [fanout >= 2]; [retry_attempts >= 1]
    bounds each merge's attempts. *)
val create :
  Iosim.Device.t ->
  sigma:int ->
  fanout:int ->
  retry_attempts:int ->
  t

(** Insert a freshly flushed run at level 0 and restore the level
    invariant by cascading merges.  [layout] is used for runs built
    by this cascade (the store passes the current universe), and [n],
    the string's current length, bounds the positions a merge may
    decode ({!Run.merge}).  [on_compact] fires just before each merge
    attempt (phase tracking). *)
val insert_run :
  ?layout:Indexing.Stream_table.layout ->
  ?on_compact:(unit -> unit) ->
  t ->
  n:int ->
  Run.t ->
  unit

(** All runs, newest first (level 0 first, newest first within each
    level) — the shadowing order for queries and merges. *)
val runs_newest_first : t -> Run.t list

(** Runs per level, level 0 first (trailing empty levels trimmed). *)
val level_counts : t -> int list

(** Completed merges. *)
val compactions : t -> int

(** Merges abandoned after exhausting their retry budget. *)
val degraded : t -> int

(** True while some level is overfull because a merge was abandoned;
    cleared when a later cascade catches up. *)
val pending : t -> bool

(** Live structure size (sum over runs; superseded extents on the
    append-only device are not reclaimed and not counted). *)
val size_bits : t -> int

(** Frames of every live run, for integrity wiring. *)
val frames : t -> Iosim.Frame.t list
