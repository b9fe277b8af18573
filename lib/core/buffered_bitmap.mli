(** Dynamic buffered compressed bitmap index (§4.2, Theorem 6).

    Stores one compressed bitmap (position set) per {e stream} —
    characters in the standalone use, tree-node identifiers when this
    structure implements a materialized level of the fully dynamic
    index of §4.3.  The bitmaps are gap-encoded into leaf blocks of at
    most [B/2] payload bits whose first codeword is absolute (the
    blocked layout of §4.2); a [c]-ary search tree is built over the
    leaf blocks, and every internal node carries a [B]-bit buffer of
    pending updates.

    Updates go to the root buffer (pinned in internal memory, hence
    free); a full buffer moves its largest per-child group one level
    down, so an update costs amortized [O(lg n / b)] I/Os.  A point
    query reads the stream's leaf blocks ([O(T/B)]) plus the buffers
    on the paths to them ([O(lg n)] + one per leaf block).

    Invariants: every stream owns at least one leaf block at all
    times, and a leaf block only ever contains positions of its own
    stream. *)

type t
type op = Add | Remove

(** [build device ~streams postings] bulk-loads the structure.
    [postings] must have length [streams]; entries may be empty.
    [pos_bits] (default 40) bounds representable positions. *)
val build :
  ?c:int ->
  ?pos_bits:int ->
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  Cbitmap.Posting.t array ->
  t

(** Apply (buffer) one update.  [Add] of a present position and
    [Remove] of an absent one are no-ops when they reach the leaf. *)
val update : t -> op -> stream:int -> pos:int -> unit

(** Positions of one stream, reflecting all buffered updates. *)
val point_query : t -> int -> Cbitmap.Posting.t

(** Union of positions of streams [lo..hi]. *)
val range_query : t -> lo:int -> hi:int -> Cbitmap.Posting.t

(** Push every buffered update down to the leaves (used by tests and
    before space accounting). *)
val flush_all : t -> unit

(** Blocks used (leaves + buffers), in bits. *)
val size_bits : t -> int

(** Detect-or-repair hooks over the leaf blocks: scrub verifies each
    leaf's checksummed frame, repair rewrites corrupt leaves from
    their in-memory shadow images.  Buffer blocks are not covered —
    their device copy exists only for I/O accounting. *)
val integrity : t -> Indexing.Integrity.t

(** Number of leaf blocks. *)
val leaf_count : t -> int

(** Tree height (1 = root only above leaves). *)
val height : t -> int

(** Use the structure directly as a per-character secondary index
    (streams = characters; a range query unions the streams): the
    standalone "dynamic compressed bitmap index" reading of §4.2. *)
val instance : ?c:int -> Iosim.Device.t -> sigma:int -> int array -> Indexing.Instance.t
