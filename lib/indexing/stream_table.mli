(** A table of compressed position sets stored on a device:
    concatenated gamma gap streams plus an on-device directory of
    (offset, cardinality) pairs.

    This is the storage layout shared by the per-character compressed
    bitmap index, the binned index and the multi-resolution index: a
    contiguous run of streams can be read with one sequential pass,
    and the directory tells the reader where each stream starts. *)

type t

(** Payload encoding for the table's streams.  [Gap] is the seed
    layout: each stream is a gap-coded sequence ({!Cbitmap.Gap_codec},
    per the [?code] argument).  [Hybrid] stores each stream as chunked
    adaptive containers ({!Cbitmap.Container}): one container per
    [chunk]-wide slice of [0 .. universe - 1], each independently
    array/bitmap/run encoded by the density selector.  The directory
    and framing are identical in both layouts, so integrity, repair
    and prefetch work unchanged. *)
type layout = Gap | Hybrid of { universe : int; chunk : int }

(** [build ?code ?layout device postings] lays the table out on
    [device].  [layout] defaults to [Gap]; [code] only applies to the
    [Gap] layout.  Every payload decode runs on the buffered word
    decoder ({!Iosim.Device.decoder}); its counters match a per-bit
    reader of the same stream (the test suite's oracle checks this). *)
val build :
  ?code:Cbitmap.Gap_codec.code ->
  ?layout:layout ->
  Iosim.Device.t ->
  Cbitmap.Posting.t array ->
  t

(** Number of streams. *)
val length : t -> int

(** The device the table lives on. *)
val device : t -> Iosim.Device.t

(** Cardinality of stream [i], read from the on-device directory
    (counted I/O). *)
val count : t -> int -> int

(** Decode stream [i] (counted I/O: directory + stream bits). *)
val read_one : t -> int -> Cbitmap.Posting.t

(** Union of streams [lo..hi]: the directory entries for the range are
    read in one sequential pass, then each stream's extent is decoded
    whole, in order, and the decoded postings are unioned with
    {!Cbitmap.Posting.union_many}. *)
val read_union : t -> lo:int -> hi:int -> Cbitmap.Posting.t

(** {2 Two-step reads}

    A union across several tables or runs reads every directory entry
    it needs first ({!extents}), then decodes the extents ({!union}),
    as {!read_union} does for one run. *)

(** One stream's payload as its directory entry locates it: the
    absolute bit position of its first codeword and its cardinality. *)
type extent = private { table : t; pos : int; count : int }

(** The extent of stream [i] (one counted directory read; no phase
    span). *)
val extent : t -> int -> extent

(** The extents of streams [lo..hi], in order (counted directory
    reads; no phase span). *)
val extents : t -> lo:int -> hi:int -> extent list

(** Decode one extent in a single pass over its codewords: the gap
    codec for [Gap], {!Cbitmap.Container.decode_chunked} for [Hybrid]
    (counted payload reads; no phase span). *)
val decode : extent -> Cbitmap.Posting.t

(** [decode_into e out ~at] writes [decode e]'s positions to
    [out.(at .. at + e.count - 1)], with the same counted reads and
    the check {!Cbitmap.Posting.adopt} makes: a [Gap] extent decodes
    in place, a [Hybrid] one decodes whole and is copied.  Raises
    [Invalid_argument] if the slice does not fit [out]. *)
val decode_into : extent -> int array -> at:int -> unit

(** [union es] = [Posting.union_many (List.map decode es)]. *)
val union : extent list -> Cbitmap.Posting.t

(** {2 Sequential reader}

    A reader decodes a sequence of one table's extents through one
    counted {!Iosim.Device.decoder}, made at the first extent, instead
    of one decoder per extent.  Charging contract: each {!read_into}
    repositions the decoder at the extent's start with an empty cache,
    the state a fresh decoder starts in, so it consumes and charges
    exactly what {!decode_into} of the same extent charges: the bits
    read, the blocks touched and their order, and so every
    {!Iosim.Stats} field, pool hits and seeks included, equal those of
    one [decode_into] per extent in the same order.  A [Hybrid] table
    reads each extent with [decode_into].  Like any device decoder, a
    reader is stale once the device is written
    ([Secidx_error.Stale_decoder]). *)
type reader

val reader : t -> reader

(** [read_into r e out ~at] is [decode_into e out ~at] through [r]:
    the same positions, counted reads and
    {!Cbitmap.Posting.check_slice} check.  Raises [Invalid_argument]
    if [e] belongs to another table or the slice does not fit [out]. *)
val read_into : reader -> extent -> int array -> at:int -> unit

(** [(pos, len)]: the absolute payload bit range covered by streams
    [lo..hi], for handing to [Device.prefetch] ahead of a sequential
    decode of the run.  Costs two counted directory reads. *)
val payload_span : t -> lo:int -> hi:int -> int * int

(** The table's two framed extents (directory, payload) — both carry
    CRC-32 headers and rebuild closures (re-encode from the retained
    postings, bit-identical). *)
val frames : t -> Iosim.Frame.t list

(** Counted verification of both extents; returns how many are
    corrupt (0, 1 or 2). *)
val scrub : t -> int

(** Rewrite every corrupt extent from its rebuild closure (counted
    writes), leaving the table verifiable again. *)
val repair : t -> unit

(** Packaged scrub/repair hooks for instance wiring. *)
val integrity : t -> Integrity.t

(** Directory plus payload size, in bits. *)
val size_bits : t -> int

(** Payload only (sum of compressed stream sizes). *)
val payload_bits : t -> int
