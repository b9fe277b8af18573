(** Growable in-memory bit buffer (writer side of the bit-I/O substrate).

    Bits are addressed from 0; within a byte the most significant bit
    comes first, so bit [i] of the stream lives in byte [i / 8] under
    mask [0x80 lsr (i mod 8)].  All variable-length codes in
    {!Bitio.Codes} write through this interface.

    Two invariants hold after every operation, and {!backing} exposes
    both:
    - {b zero tail}: every bit of the backing store at or past
      [length t] is zero;
    - {b slack}: the backing store holds at least 8 bytes starting at
      the byte that bit [length t] lies in.

    {!write_bits} relies on them to append up to 56 bits with one
    unaligned 64-bit big-endian store: the store rewrites the partial
    last byte merged with the new bits and fills the rest of its eight
    bytes with the zeros already there. *)

type t

(** [create ()] is an empty buffer.  [capacity] is an initial size hint
    in bits. *)
val create : ?capacity:int -> unit -> t

(** Number of bits written so far. *)
val length : t -> int

(** The live backing byte store (no copy).  Only the first [length t]
    bits are meaningful; bits past the end are zero, and the store is
    at least 8 bytes longer than [length t] needs.  The reference is
    invalidated by any subsequent write that grows the buffer (the
    store is reallocated), so snapshot consumers such as
    {!Decoder.of_bitbuf} must finish before further writes. *)
val backing : t -> bytes

(** Append a single bit. *)
val write_bit : t -> bool -> unit

(** [write_bits t ~width v] appends the [width] low bits of [v],
    most-significant first.  Requires [0 <= width <= 62] and
    [0 <= v < 2^width].  Widths up to 56 cost one 64-bit store; 57–62
    go byte by byte. *)
val write_bits : t -> width:int -> int -> unit

(** Random read of an already-written bit.  Raises [Invalid_argument]
    when out of range. *)
val get_bit : t -> int -> bool

(** [read_bits t ~pos ~width] reads [width] bits starting at [pos],
    most-significant first. *)
val read_bits : t -> pos:int -> width:int -> int

(** [blit src ~src_bit dst ~dst_bit ~len] copies [len] bits of [src]
    starting at [src_bit] into [dst] at [dst_bit], growing [dst] if
    the copy extends past its end ([dst_bit <= length dst] is
    required; bits of [dst] outside the target range are
    preserved). *)
val blit : t -> src_bit:int -> t -> dst_bit:int -> len:int -> unit

(** [append dst src] appends all bits of [src] to [dst].
    [append t t] (self-append, doubling) is allowed. *)
val append : t -> t -> unit

(** [append_bytes t src ~src_bit ~len] appends [len] bits read from
    the raw byte string [src] starting at bit [src_bit] (same bit
    convention as the buffer itself). *)
val append_bytes : t -> bytes -> src_bit:int -> len:int -> unit

(** Truncate to the empty buffer (capacity is kept). *)
val reset : t -> unit

(** Copy out the underlying bytes; the final partial byte is
    zero-padded. *)
val to_bytes : t -> bytes

(** [blit_to_bytes t dst ~dst_bit] copies all bits of [t] into [dst]
    starting at bit offset [dst_bit] of [dst]. *)
val blit_to_bytes : t -> bytes -> dst_bit:int -> unit

(** A buffer holding the bits of [b], starting with the most
    significant of the [width] requested. *)
val of_int : width:int -> int -> t

(** Equality of contents (length and every bit). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
