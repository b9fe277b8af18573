(** Crash-safe heavy-update index store (PR 8 tentpole): WAL + delta
    buffer + leveled runs.

    Every update batch is first made durable in the {!Log} (one
    group-commit transfer — the acknowledgement point), then applied
    to an in-memory delta overlay.  When the overlay holds
    [flush_threshold] operations it is sealed into a level-0 {!Run}
    and handed to {!Levels}, which cascades merges.  Queries overlay
    newest-first: delta, then each level's runs, then the immutable
    base image, shadowing positions already claimed — answers are
    bit-identical to rebuilding a static index over the mutated
    string.

    Durability contract: an operation is {e acknowledged} once
    {!update} / {!update_batch} returns.  After a crash at any counted
    block write, {!Recovery.recover} on the surviving WAL device
    yields a store whose operation history is a prefix of the issued
    history no shorter than the acknowledged prefix — no lost acks,
    no silent wrong answers (the crash-point campaign in
    [bench --wal] sweeps every write to check exactly this).

    The flush decision is checked after every applied operation, so
    the sealed-run structure is a deterministic function of the
    operation sequence alone — replaying the log op by op (or in any
    grouping) reconstructs the same levels. *)

type payload = Gap | Hybrid of { chunk : int }

type config = {
  flush_threshold : int;  (** delta operations per flush, [>= 1] *)
  fanout : int;  (** level fanout, [>= 2] (see {!Levels}) *)
  payload : payload;  (** run payload layout (PR 7 container codecs) *)
  retry_attempts : int;  (** per-merge retry budget, [>= 1] *)
}

val default_config : config

type t

(** [create ?wal_device ?index_device config ~sigma ~data] builds the
    base image from [data] on the index device and starts an empty
    WAL.  Omitted devices are created fresh (the WAL on its own small
    device — its writes are the durability cost the frontier
    measures).  Raises [Invalid_argument] on bad config or data. *)
val create :
  ?wal_device:Iosim.Device.t ->
  ?index_device:Iosim.Device.t ->
  config ->
  sigma:int ->
  data:int array ->
  t

val config : t -> config
val sigma : t -> int

(** Current string length (grows with [Append]). *)
val n : t -> int

(** Operations acknowledged as durable. *)
val acked : t -> int

val wal_device : t -> Iosim.Device.t
val index_device : t -> Iosim.Device.t

(** Apply one operation durably (log, then apply, then maybe flush).
    Raises [Invalid_argument] — before logging anything — if the
    operation references a position [>= n] or a character
    [>= sigma]. *)
val update : t -> Op.t -> unit

(** Group commit: validate the whole batch (against the length the
    string will have as the batch applies), log it as one transfer,
    then apply each operation in order.  Amortizes the per-update
    write cost by the batch size. *)
val update_batch : t -> Op.t list -> unit

(** Seal the delta overlay into a level-0 run now (no-op when the
    overlay is empty).  Updates trigger this automatically at the
    flush threshold. *)
val flush : t -> unit

(** Range query over the live state (delta + runs + base), clamped by
    the shared invalid-range rule.  Counted I/O on the index device,
    in the order of a per-run posting union: for each run newest
    first, its [lo..hi] directory entries, their extents, then its
    written stream's entry and extent; the base's entries and extents
    last.

    The store owns the query's scratch and reuses it from query to
    query: an answer and a shadow bitmap of one bit per position, and
    an {!Indexing.Stream_table.Arena} the runs' extents decode into,
    cleared once per query.  Both bitmaps are zeroed
    at the start of every query, so one that a read fault aborts leaves
    nothing behind.  The answer owns its storage.  [query] is not
    reentrant: two domains must not query one store at once. *)
val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** The character at [pos] right now ([sigma] for deleted positions);
    counted I/O.  For differential tests. *)
val char_at : t -> int -> int

(** Snapshot the store as a uniform {!Indexing.Instance.t} (name
    ["wal"], generic batch planner, integrity over all live frames).
    The snapshot tracks the live store: queries issued through it see
    later updates. *)
val instance : t -> Indexing.Instance.t

(** Current phase of the write path, for crash-site classification:
    ["idle"], ["log"], ["flush"] or ["compact"]. *)
val phase : t -> string

val flushes : t -> int
val compactions : t -> int
val degraded : t -> int
val pending_compaction : t -> bool
val level_counts : t -> int list

(** Live index structure bits (base + runs). *)
val size_bits : t -> int

(** Bits appended to the WAL so far. *)
val wal_bits : t -> int
