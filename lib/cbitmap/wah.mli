(** Word-Aligned Hybrid (WAH) bitmap compression — the practical
    comparator of Wu–Otoo–Shoshani [18] (§1.2: "compression schemes
    used in practice also take into account the computational effort
    ... with some reduction in worst-case compression rate").

    We implement the classic 32-bit variant: a literal word stores 31
    payload bits (MSB = 0); a fill word (MSB = 1) stores the fill bit
    and a 30-bit count of 31-bit groups. *)

type t

(** Number of 31-bit payload bits represented (the bitmap length as
    passed to [encode]). *)
val bit_length : t -> int

(** Size of the compressed image in bits (number of words × 32). *)
val size_bits : t -> int

(** Number of 32-bit words. *)
val word_count : t -> int

(** [encode ~n posting] compresses the bitmap of length [n] whose set
    bits are [posting]. *)
val encode : n:int -> Posting.t -> t

(** Positions of the set bits. *)
val decode : t -> Posting.t

(** Bitwise or of two images of equal [bit_length]. *)
val union : t -> t -> t

(** Bitwise and. *)
val inter : t -> t -> t

(** Serialize to / from a bit buffer (word stream, 32 bits each). *)
val to_buf : t -> Bitio.Bitbuf.t

val of_decoder : Bitio.Decoder.t -> words:int -> bit_length:int -> t
