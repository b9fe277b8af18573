(** One sealed, immutable run of the leveled store: a flushed delta
    buffer, or the merge of several such runs.

    A run is a {!Indexing.Stream_table} with [sigma + 2] streams —
    the same compressed layout (and the same CRC framing, directory
    and payload encodings) every static index in the repo uses:

    - streams [0 .. sigma-1]: positions whose {e newest opinion in
      this run} sets character [c];
    - stream [sigma]: tombstones — positions whose newest opinion in
      this run deletes them;
    - stream [sigma + 1]: the written set — every position the run
      has an opinion about (the union of all the above).

    Query and merge both walk runs newest-first and use the written
    set as a shadow: a position claimed by a newer run is invisible in
    every older one.  The base image of the string is stored as a run
    with empty tombstone and written streams; it is only sound as the
    {e last} link of a chain (nothing shadows below it) and must never
    be merged. *)

type t

val sigma : t -> int

(** [build ?layout device ~sigma ~chars ~tombstones ~written]
    seals a run.  [chars] has length [sigma]; see above for the
    stream meaning.  [layout] as in {!Indexing.Stream_table.build}. *)
val build :
  ?layout:Indexing.Stream_table.layout ->
  Iosim.Device.t ->
  sigma:int ->
  chars:Cbitmap.Posting.t array ->
  tombstones:Cbitmap.Posting.t ->
  written:Cbitmap.Posting.t ->
  t

(** The run's table: [sigma + 2] streams laid out as above.  The
    store's query reads its extents directly. *)
val table : t -> Indexing.Stream_table.t

(** The written set (stream [sigma + 1]); counted I/O, its directory
    entry and then its payload, through a fresh
    {!Indexing.Stream_table.Arena}. *)
val written : t -> Cbitmap.Posting.t

(** Tombstones (stream [sigma]); counted I/O. *)
val tombstones : t -> Cbitmap.Posting.t

(** Per-character positions (stream [ch]); counted I/O. *)
val posting : t -> int -> Cbitmap.Posting.t

(** [merge ?layout device ~n runs] seals the newest-first [runs]
    into one run with identical query semantics: for every position
    the newest opinion wins.  Each input run is read through the
    merge's {!Indexing.Stream_table.Arena}, cleared per run, stream by
    stream as {!written} reads one: streams [0 .. sigma-1], then the
    tombstones, then the written set, each directory entry read right
    before its payload.  A stream's part
    survives where a position bitmap of the newer runs' written sets
    is clear, and the disjoint parts are joined with
    {!Cbitmap.Posting.union_many}; the output is then built on
    [device].  The bitmap, the arena and the decoded streams are the
    merge's own, allocated per call.  [n] bounds every position (the string's
    length): a decoded position at or past it raises
    [Secidx_error.Corrupt].  Raises [Invalid_argument] on an empty list
    or mismatched alphabets. *)
val merge :
  ?layout:Indexing.Stream_table.layout ->
  Iosim.Device.t ->
  n:int ->
  t list ->
  t

(** The run's framed extents (directory + payload), for integrity
    wiring.  A run keeps its streams in memory as their repair
    source. *)
val frames : t -> Iosim.Frame.t list

val size_bits : t -> int
val payload_bits : t -> int
