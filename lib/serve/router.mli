(** Scatter/gather router over position shards (PR 6).

    A range query scatters to every shard, executes through the
    shard's warm [Indexing.Instance.run], and the router writes the
    shards' local answers — concatenated in shard order, each shifted by its shard's
    base, complements expanded as they are written — once into a
    posting bit-identical to the unsharded instance's answer.  A batch
    is normalized before it scatters, so each distinct range is
    executed and assembled once, however many slots ask for it.

    [Sequential] runs shards in the caller's domain (the differential
    baseline); [Domains] gives each non-empty shard a worker domain
    with a private mailbox.  Results and counters cross domains only
    behind mutex handshakes, and shards share no mutable state, so the
    query path itself takes no locks. *)

type mode = Sequential | Domains

type t

(** In [Domains] mode this spawns one domain per non-empty shard;
    call {!shutdown} when done. *)
val create : ?mode:mode -> Shard.t array -> t

val shards : t -> Shard.t array
val mode : t -> mode

(** Domains executing queries: worker count in [Domains] mode, 1 in
    [Sequential]. *)
val domains_used : t -> int

(** Materialized global answer, bit-identical to
    [Answer.to_posting (Instance.query)] on the unsharded index. *)
val query : t -> lo:int -> hi:int -> Cbitmap.Posting.t

(** Batched scatter/gather: slot [i] answers [ranges.(i)].  The
    router normalizes the batch first ({!Indexing.Batch.normalize},
    with the shards' alphabet): each distinct clamped range is executed
    once, and slots that clamp to nothing answer {!Cbitmap.Posting.empty}
    without reaching a shard (if every shard is empty, every answer is
    empty).  Each shard runs the distinct ranges through one warm
    [Indexing.Instance.run] (a lone range takes the direct [query],
    several the batch path) and returns local compressed answers
    ({!Shard.run_batch}); the router sizes each distinct answer from
    their cardinalities, allocates it once and writes every part into
    it with {!Cbitmap.Posting.Writer} (seams checked), on the calling
    domain in both modes.  Duplicate slots — equal ranges, or ranges
    that clamp to the same one — share that one immutable posting.  A
    lone part that is the whole answer is returned uncopied.  If
    shards raise, both modes re-raise the first failure in shard order
    (in [Domains] mode after every worker has finished the batch), and
    the router stays usable for later batches. *)
val query_batch : t -> (int * int) array -> Cbitmap.Posting.t array

(** Per-shard counter snapshots, in shard order.  Safe only at
    quiescence — between {!query_batch} calls or after {!shutdown};
    feed to {!Iosim.Stats.merge} / {!Iosim.Stats.imbalance} for the
    aggregate report. *)
val shard_stats : t -> Iosim.Stats.t list

(** Stop and join the worker domains (idempotent; no-op in
    [Sequential] mode).  The router rejects queries afterwards. *)
val shutdown : t -> unit
