(** Variable-length integer codes.

    The paper compresses bitmaps by gamma-coding run lengths / gaps
    (Elias [12]); we also provide delta, unary, Golomb–Rice and
    fixed-width codes for baselines and layout metadata.  Every code
    comes as a triple: [encode_x buf v], [decode_x decoder] and
    [x_size v] (exact encoded length in bits), with
    [decode (encode v) = v] and [x_size v = ] number of bits written
    by [encode_x].

    The decoders run on the buffered {!Decoder} (zero/one runs
    resolved by a CLZ scan of the cached word, mantissas by one shift)
    and the encoders emit runs with [write_bits] chunks instead of
    per-bit loops; a gamma codeword is one chunk.  The per-bit
    implementations are the test suite's oracle ([test/oracle]); they
    are not part of this library. *)

(** {1 Unary} — [v >= 0] encoded as [v] one-bits then a zero. *)

val encode_unary : Bitbuf.t -> int -> unit
val decode_unary : Decoder.t -> int
val unary_size : int -> int

(** {1 Elias gamma} — [v >= 1]; [2*floor(lg v) + 1] bits.

    A codeword is [v] itself written in a field of [2*floor(lg v) + 1]
    bits (its leading zeros are the unary length prefix), so
    [encode_gamma] makes one {!Bitbuf.write_bits} call for
    [v < 2^31] (codewords of at most 62 bits) and two above. *)

val encode_gamma : Bitbuf.t -> int -> unit
val decode_gamma : Decoder.t -> int
val gamma_size : int -> int

(** [encode_gamma_gaps buf ~prev a] gamma-codes the gaps of the
    strictly increasing [a], the first taken from [prev] ([-1] for no
    predecessor): [encode_gamma buf (a.(i) - a.(i-1))] in turn, with
    [a.(-1) = prev].  The bulk encode loop behind [Gap_codec.encode],
    and the writer-side mirror of {!Decoder.gamma_prefix_into}.
    Raises [Invalid_argument] at the first gap below 1, after writing
    the codewords before it. *)
val encode_gamma_gaps : Bitbuf.t -> prev:int -> int array -> unit

(** {1 Elias delta} — [v >= 1]; asymptotically
    [lg v + 2 lg lg v + O(1)] bits. *)

val encode_delta : Bitbuf.t -> int -> unit
val decode_delta : Decoder.t -> int
val delta_size : int -> int

(** {1 Golomb–Rice with parameter [k]} — [v >= 0]. *)

val encode_rice : Bitbuf.t -> k:int -> int -> unit
val decode_rice : Decoder.t -> k:int -> int
val rice_size : k:int -> int -> int

(** {1 Fixed width} — [width] bits, [0 <= v < 2^width]. *)

val encode_fixed : Bitbuf.t -> width:int -> int -> unit
val decode_fixed : Decoder.t -> width:int -> int
val fixed_size : width:int -> int -> int

(** {1 Helpers} *)

(** [floor_log2 v] for [v >= 1]. *)
val floor_log2 : int -> int

(** [ceil_log2 v] for [v >= 1]; number of bits needed to distinguish
    [v] values ([ceil_log2 1 = 0]). *)
val ceil_log2 : int -> int

(** {1 Fibonacci} — [v >= 1]; Zeckendorf representation terminated by
    two consecutive one-bits.  Robust to bit errors and competitive
    with delta for mid-sized gaps. *)

val encode_fibonacci : Bitbuf.t -> int -> unit
val decode_fibonacci : Decoder.t -> int
val fibonacci_size : int -> int

(** Ascending Zeckendorf term indices of [v >= 1]. *)
val fibonacci_decomposition : int -> int list
