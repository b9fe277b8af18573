(** Checksummed on-device extent framing: each frame guards one extent
    with an out-of-line 80-bit header (magic, payload bit length,
    CRC-32 over the payload's bit image).  See DESIGN.md, "Fault
    model and integrity".

    Sealing is raw/uncounted (the writer already holds the bits);
    {!verify} is counted — one header read plus a sequential payload
    pass — and is the scrub cost the experiments report.  {!repair}
    rewrites the payload from the frame's [rebuild] closure (the index
    is derivable state) and reseals.  A closure re-derives the bits
    from primary data (a tree index's levels from its string) or
    returns an image its owner keeps ({!seal}'s [image] for extents
    mutated in place); [Indexing.Integrity] lists which is which. *)

type t

(** Bit length of a frame header on the device. *)
val header_bits : int

(** [padded ~len buf] is a zero-padded copy of [buf] of exactly [len]
    bits — the image a shorter write leaves on a freshly zeroed block.
    Raises [Invalid_argument] if [buf] is longer than [len]. *)
val padded : len:int -> Bitio.Bitbuf.t -> Bitio.Bitbuf.t

(** [store device ~magic ?align_block ?rebuild buf] stores [buf] as a
    framed extent: payload first (honouring [align_block]), then the
    header in the following allocation.  [rebuild], when given, must
    regenerate a bit-identical payload from primary data. *)
val store :
  Device.t ->
  magic:int ->
  ?align_block:bool ->
  ?rebuild:(unit -> Bitio.Bitbuf.t) ->
  Bitio.Bitbuf.t ->
  t

(** Frame an extent whose content was already written (e.g. a node
    block populated via [write_buf]): allocates and writes the header,
    hashing the current device contents (raw, uncounted).  When the
    writer still holds the authoritative bit image, pass it as
    [image]: the checksum is then computed from memory, so corruption
    that hit the device between the write and a lazy seal is caught by
    the first verify instead of being sealed in.  [image] must be
    exactly [region.len] bits. *)
val seal :
  Device.t ->
  magic:int ->
  ?rebuild:(unit -> Bitio.Bitbuf.t) ->
  ?image:Bitio.Bitbuf.t ->
  Device.region ->
  t

(** The guarded extent. *)
val payload : t -> Device.region

(** Attach or replace the rebuild closure after construction. *)
val set_rebuild : t -> (unit -> Bitio.Bitbuf.t) -> unit

(** Mark the payload as mutated in place; the next {!verify} reseals
    instead of checking (in-place mutators are authoritative until the
    next scrub — the documented trust window). *)
val invalidate : t -> unit

(** Recompute and rewrite the header from current payload contents. *)
val reseal : t -> unit

(** Counted integrity check; [false] counts one [Stats.faults_detected]. *)
val verify : t -> bool

(** Rewrite the payload from the rebuild closure and reseal.  Raises
    [Secidx_error.Corrupt] if the frame has no rebuild source or the
    rebuilt image does not fit the extent. *)
val repair : t -> unit

(** [scrub frames] verifies every frame and returns the corrupt ones. *)
val scrub : t list -> t list

(** Repair every frame in the list (typically [scrub]'s result). *)
val repair_all : t list -> unit
