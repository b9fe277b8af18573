(** Gap compression of position sets — the paper's canonical
    compressed-bitmap representation (run-length / gap encoding with
    Elias gamma codes, §1.2).

    A posting list [p_0 < p_1 < ...] is encoded as the codeword for
    [p_0 + 1] followed by codewords for the gaps [p_i - p_(i-1)]
    (which are [>= 1]).  The number of elements is not part of the
    encoding; the structures store cardinalities (the paper's node
    weights) alongside.

    The codec is parametric in the integer code so that the ablation
    experiments can compare gamma against delta and Rice. *)

type code = Gamma | Delta | Rice of int | Fibonacci

(** Append the encoding of a posting list to a bit buffer. *)
val encode : ?code:code -> Bitio.Bitbuf.t -> Posting.t -> unit

(** Encoding of a posting list as a fresh buffer. *)
val to_buf : ?code:code -> Posting.t -> Bitio.Bitbuf.t

(** Exact encoded size in bits. *)
val encoded_size : ?code:code -> Posting.t -> int

(** [decode decoder ~count] reads back [count] positions. *)
val decode : ?code:code -> Bitio.Decoder.t -> count:int -> Posting.t

(** [decode_into decoder ~count out] fills [out.(at .. at+count-1)]
    with absolute positions in one pass, with no [Posting]
    intermediate — the bulk decode hot path.  [last] (default [-1],
    none) is the last value of an existing sequence the decode
    continues; [at] (default 0) is where in [out] the positions go, so
    a batch can decode many extents into one reusable array. *)
val decode_into :
  ?code:code ->
  ?last:int ->
  ?at:int ->
  Bitio.Decoder.t ->
  count:int ->
  int array ->
  unit

(** Encode the positions with a fixed offset added (used when a node
    stores positions relative to a base). *)
val encode_shifted : ?code:code -> shift:int -> Bitio.Bitbuf.t -> Posting.t -> unit

(** Size in bits of appending one more position [p] to a list whose
    current last element is [last] ([last = -1] for an empty list). *)
val append_size : ?code:code -> last:int -> int -> int

(** Append a single position to an existing encoding (caller tracks
    [last]). *)
val encode_append : ?code:code -> last:int -> Bitio.Bitbuf.t -> int -> unit

(** Information-theoretic minimum [lg (n choose m)] in bits, used to
    compare measured sizes against the optimum. *)
val binomial_entropy_bits : n:int -> m:int -> float
