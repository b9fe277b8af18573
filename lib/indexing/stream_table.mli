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

(** One stream's payload as its directory entry locates it: the
    absolute bit position of its first codeword and its cardinality. *)
type extent = private { table : t; pos : int; count : int }

(** The extent of stream [i] (one counted directory read; no phase
    span). *)
val extent : t -> int -> extent

(** The extents of streams [lo..hi], in order (counted directory
    reads; no phase span). *)
val extents : t -> lo:int -> hi:int -> extent list

(** {2 Reading extents}

    Every structure answers a query the same way: it reads the
    directory entries it needs ({!extents}), decodes each extent into
    an arena it owns ({!Arena.read}), and unions the decoded slices
    ({!Arena.union}). *)

type table := t

module Arena : sig
  (** Reusable words holding decoded extents, plus one counted
      {!Iosim.Device.decoder}, made at the first {!read} after a
      {!clear} (and again when an extent lies on another device).
      Charging contract: each {!read} repositions that decoder at the
      extent's start with an empty cache, the state a fresh decoder
      starts in, so it charges what a fresh decoder per extent
      charges: the bits read, the blocks touched and their order, and
      so every {!Iosim.Stats} field.  Like any device decoder, the
      arena's is stale once the device is written
      ([Secidx_error.Stale_decoder]) until the next {!clear}.  An
      arena is confined to one domain, as the device is. *)
  type t

  val create : unit -> t

  (** Forget the decoded slices and the decoder: once per query or
      batch, and after any write to a device the arena reads. *)
  val clear : t -> unit

  (** [read a e] decodes [e] after the slices already in [a] and
      returns its slice [(off, len)] of {!buffer}, [len = e.count]:
      the gap codec for [Gap], {!Cbitmap.Container.decode_chunked} for
      [Hybrid] (counted payload reads; no phase span).  The positions
      get the check {!Cbitmap.Posting.check_slice} makes; a [Hybrid]
      extent holding other than [e.count] positions raises
      [Secidx_error.Corrupt].  Growing the words copies the ones in
      use, so earlier slices stay valid. *)
  val read : t -> extent -> int * int

  (** [read_gap a device ~code ~pos ~count] is {!read} for a
      gap-coded region that is not in a table: [count] positions
      coded with [code] from bit [pos] of [device], charged as {!read}
      charges an extent (what a fresh decoder at [pos] charges). *)
  val read_gap :
    t ->
    Iosim.Device.t ->
    code:Cbitmap.Gap_codec.code ->
    pos:int ->
    count:int ->
    int * int

  (** [filter a keep slice] copies the positions of [slice] that
      [keep] accepts to a new slice after the others and returns it;
      [slice] is left as it was.  No I/O. *)
  val filter : t -> (int -> bool) -> int * int -> int * int

  (** [read_stream a t i] reads stream [i] of [t] as a batch's cache
      miss does: its directory entry in a ["directory"] phase span,
      then {!read} of its extent in a ["payload"] span. *)
  val read_stream : t -> table -> int -> int * int

  (** The words the slices index into.  A {!read} may replace it. *)
  val buffer : t -> int array

  (** [union a slices] is {!Cbitmap.Posting.union_slices} over
      [slices] of {!buffer}, with the arena's scratch words: a fresh
      posting that shares nothing with the arena. *)
  val union : t -> (int * int) list -> Cbitmap.Posting.t
end

(** [prefetch_uncached t ~cached ~lo ~hi] hands {!Iosim.Device.prefetch}
    the payload span of each maximal run of streams in [lo..hi] that
    [cached] rejects, in order, so a batch re-reads no stream it has
    already decoded and reads the others in sequential passes.  Costs
    two counted directory reads per run ({!payload_span}). *)
val prefetch_uncached : t -> cached:(int -> bool) -> lo:int -> hi:int -> unit

(** [(pos, len)]: the absolute payload bit range covered by streams
    [lo..hi], for handing to [Device.prefetch] ahead of a sequential
    decode of the run.  Costs two counted directory reads. *)
val payload_span : t -> lo:int -> hi:int -> int * int

(** The table's two framed extents (directory, payload), each carrying
    a CRC-32 header.  The table keeps no postings: [source] is the
    repair source its owner names, and repairing either extent
    re-encodes the postings [source ()] returns.  They must be the
    postings the table was built from, so the rewrite is bit-identical
    (the tree indexes re-derive them from the string; baselines and
    WAL runs keep theirs, in a field of their own). *)
val frames : t -> source:(unit -> Cbitmap.Posting.t array) -> Iosim.Frame.t list

(** Scrub and repair hooks over {!frames}, for instance wiring. *)
val integrity : t -> source:(unit -> Cbitmap.Posting.t array) -> Integrity.t

(** The directory and payload extents, in that order. *)
val regions : t -> Iosim.Device.region list

(** Directory plus payload size, in bits. *)
val size_bits : t -> int

(** Payload only (sum of compressed stream sizes). *)
val payload_bits : t -> int
