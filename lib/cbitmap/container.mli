(** Adaptive hybrid container payloads (PR 7).

    One container encodes one extent: the subset of positions
    [0 .. n-1] a posting occupies, where [n] is the extent's universe
    width.  Four kinds, tagged by a 2-bit header so decode dispatches
    without probing:

    - {b empty} (tag 3): no further bits — 2 bits total.  Chunked
      payloads (see [Indexing.Stream_table] and
      [Baselines.Roaring_index]) make empty chunks nearly free.
    - {b array} (tag 0): cardinality [m] stored as [m - 1] in a
      [count_bits n] field, then [m] ascending positions of
      [value_bits n] bits each — the sparse case.
    - {b bitmap} (tag 1): [n] literal bits, position order — the dense
      case.  Scanned word-at-a-time with SWAR popcount
      ({!Bitio.Bitops}), never bit-by-bit.
    - {b runs} (tag 2): run count [r] stored as [r - 1] in a
      [count_bits n] field, then [r] maximal runs as
      (start, length - 1) pairs of [value_bits n] bits each — the
      clustered case.

    The selector {!choose} picks the smallest encoding from the exact
    size formulas (cardinality, extent width, maximal-run count); ties
    prefer array, then runs, then bitmap.  Encoding is deterministic,
    so framed extents rebuild bit-identically.

    All decode-side operations take a {!Bitio.Decoder} positioned at
    the container's first bit, so they run unchanged over an in-memory
    buffer or a counted device decoder (I/O accounting for free).
    {!decode} consumes the container exactly — sequential chunked
    streams need no offset table.  The fast-path queries ({!rank},
    {!select}, {!range_emit}, {!cardinality}) read only what they
    need — array and run containers answer without materializing any
    bitmap, and may leave the decoder mid-container. *)

type kind = Empty | Array | Bitmap | Runs

val kind_name : kind -> string

(** Header tag width (bits). *)
val tag_bits : int

(** Width of one stored position for universe [n] (>= 1). *)
val value_bits : n:int -> int

(** Width of the cardinality / run-count field for universe [n].
    Counts are stored biased by one (the empty kind owns count 0), so
    this equals [value_bits ~n]. *)
val count_bits : n:int -> int

(** Exact encoded sizes in bits, header tag included. *)

val empty_bits : int
val array_bits : n:int -> m:int -> int
val bitmap_bits : n:int -> int
val runs_bits : n:int -> r:int -> int

(** Number of maximal runs of consecutive positions. *)
val runs_of : Posting.t -> int

(** [choose ~n ~m ~r] is the smallest (kind, size in bits) for an
    extent of universe [n], cardinality [m] and [r] maximal runs.
    Requires [0 <= m <= n]; [m = 0] always selects [Empty]. *)
val choose : n:int -> m:int -> r:int -> kind * int

(** [encoded_size ~n posting] = size of the selected encoding. *)
val encoded_size : n:int -> Posting.t -> int

(** Append the selected container for [posting] (positions must lie in
    [0 .. n-1]) to [buf]; returns the kind chosen. *)
val encode : n:int -> Bitio.Bitbuf.t -> Posting.t -> kind

(** Read the header tag and advance past it. *)
val read_kind : Bitio.Decoder.t -> kind

(** Decode a whole container, consuming exactly its bits. *)
val decode : n:int -> Bitio.Decoder.t -> Posting.t

(** [decode_add ~n ~base d] is {!decode} with [base] added to every
    position — the chunked-stream inner loop. *)
val decode_add : n:int -> base:int -> Bitio.Decoder.t -> int array

(** Cardinality without materializing positions: array and run
    containers answer from their headers (runs: one pass over run
    lengths), bitmap containers from a SWAR popcount scan. *)
val cardinality : n:int -> Bitio.Decoder.t -> int

(** [rank ~n d x] = number of members < [x] ([0 <= x <= n]).  Array
    and run containers stop at the first entry >= [x]; bitmap
    containers popcount whole words up to [x]. *)
val rank : n:int -> Bitio.Decoder.t -> int -> int

(** [select ~n d k] = the k-th member (0-based), or [None] if [k] is
    out of range.  Array containers seek straight to entry [k]. *)
val select : n:int -> Bitio.Decoder.t -> int -> int option

(** Members in [lo .. hi], without materializing the rest: array and
    run containers clip directly; bitmap containers skip whole words
    to [lo] and stop after [hi]. *)
val range_emit : n:int -> Bitio.Decoder.t -> lo:int -> hi:int -> Posting.t

(** {2 Chunked payloads}

    A posting over universe [0 .. universe - 1] stored as a sequence
    of independent containers, one per [chunk]-wide slice (the last
    slice may be narrower).  Each slice gets its own selector verdict,
    so a payload mixing sparse, dense and clustered regions adapts
    within one extent — the Roaring layout.  [chunk = universe]
    degenerates to a single per-extent container.  The sequence is
    self-describing: decode walks slices without an offset table. *)

val encode_chunked :
  universe:int -> chunk:int -> Bitio.Bitbuf.t -> Posting.t -> unit

(** Exact encoded size of {!encode_chunked}'s output, in bits. *)
val chunked_size : universe:int -> chunk:int -> Posting.t -> int

(** Decode all slices, consuming the payload exactly. *)
val decode_chunked : universe:int -> chunk:int -> Bitio.Decoder.t -> Posting.t
