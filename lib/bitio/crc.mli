(** CRC-32 (IEEE 802.3) over byte and bit ranges — the checksum used
    by the on-device extent framing ({!Iosim.Frame}).

    The bit-addressed variants hash the stream in 8-bit chunks with
    the final partial chunk left-aligned and zero-padded, so the same
    bit string hashes identically from a {!Bitbuf} and from an
    unaligned device extent.

    Whole bytes are folded eight at a time (slicing-by-8 tables).  A
    bit range whose [pos] is byte-aligned — {!of_bitbuf}, every frame
    seal and every block-aligned extent — is its whole bytes through
    that loop plus one partial tail chunk; an unaligned range builds
    each chunk from the two bytes it straddles. *)

(** Initial accumulator value (all ones, per the reflected CRC-32). *)
val init : int

(** Final xor; apply once after the last update. *)
val finish : int -> int

(** Fold a byte range into the accumulator (default [crc = init]). *)
val of_bytes : ?crc:int -> Bytes.t -> pos:int -> len:int -> int

(** Fold a bit range into the accumulator.  [pos]/[len] are in bits. *)
val of_bits : ?crc:int -> Bytes.t -> pos:int -> len:int -> int

(** Finished CRC-32 of a whole string (the classic test vector
    ["123456789"] yields [0xCBF43926]). *)
val of_string : string -> int

(** Finished CRC-32 of a buffer's bit contents. *)
val of_bitbuf : Bitbuf.t -> int
