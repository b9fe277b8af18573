(** Word-at-a-time bit manipulation on raw [bytes].

    Shared substrate under {!Bitbuf}, [Iosim.Device] and
    [Cbitmap.Rank_select]: instead of touching one bit per iteration,
    these primitives assemble/merge up to eight bytes at a time with
    shifts and masks.  The bit convention matches {!Bitbuf}: bit [i]
    lives in byte [i / 8] under mask [0x80 lsr (i mod 8)]
    (most-significant bit first).

    Bounds are {b not} checked here — callers validate ranges and the
    inner loops use unsafe accessors.  [get_bits]/[set_bits] require
    [0 <= width <= 62] and the addressed bits to lie within the
    buffer. *)

(** Branchless SWAR population count, valid for the full native int
    range (including negative values, viewed as 63-bit words). *)
val popcount : int -> int

(** Index of the least significant set bit; [x] must be non-zero. *)
val ctz : int -> int

(** Index of the most significant set bit ([-1] for [0]).  Valid for
    the full native int range; negative values report bit 62. *)
val msb : int -> int

(** [get_bits data ~pos ~width] reads [width] bits starting at bit
    [pos], most-significant first. *)
val get_bits : bytes -> pos:int -> width:int -> int

(** [set_bits data ~pos ~width v] writes the [width] low bits of [v]
    at bit [pos], most-significant first, preserving all surrounding
    bits. *)
val set_bits : bytes -> pos:int -> width:int -> int -> unit

(** [blit src ~src_pos dst ~dst_pos ~len] copies [len] bits.  Bits of
    [dst] outside the target range are preserved.  Regions must not
    overlap, except [src == dst] with [dst_pos >= src_pos + len]
    (self-append), which is safe because the copy runs front to
    back. *)
val blit : bytes -> src_pos:int -> bytes -> dst_pos:int -> len:int -> unit
