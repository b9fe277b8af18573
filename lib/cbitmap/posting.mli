(** Sets of positions (RID lists), represented as sorted arrays of
    distinct non-negative integers.

    This is the uncompressed, in-memory view of a bitmap: the ground
    truth that every index must reproduce, and the value produced by
    decompressing query answers. *)

type t

val empty : t

(** Sorts and removes duplicates. *)
val of_list : int list -> t

(** [of_sorted_array a] validates that [a] is strictly increasing and
    non-negative; raises [Invalid_argument] otherwise.  The array is
    copied. *)
val of_sorted_array : int array -> t

(** Positions of set bits of [s], where [s.[i] = '1']. *)
val of_bitstring : string -> t

val to_list : t -> int list
val to_array : t -> int array
val cardinal : t -> int
val is_empty : t -> bool

(** [get t i] is the [i]-th smallest element. *)
val get : t -> int -> int

(** Binary-search membership. *)
val mem : t -> int -> bool

(** [rank t x] is the number of elements strictly below [x]. *)
val rank : t -> int -> int

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [complement ~n t] is [{0..n-1} \ t]. *)
val complement : n:int -> t -> t

(** Multi-way union.  When the inputs hold at least one element per 64
    positions of [\[0, max\]] (total * 64 >= max + 1) they are
    scattered into a bitmap that is scanned once; otherwise they are
    merged pairwise with {!union}.  The result may share storage with
    an input (postings are immutable). *)
val union_many : t list -> t

(** [shift t k] adds [k] to every element; raises [Invalid_argument]
    if an element would become negative.  [shift t 0] is [t]. *)
val shift : t -> int -> t

(** [concat parts] joins postings whose elements lie in increasing,
    disjoint order (each part above every earlier one).  Only the seams
    between consecutive nonempty parts are checked; raises
    [Invalid_argument] when parts overlap or are out of order.  The
    result may share storage with a part. *)
val concat : t list -> t

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val equal : t -> t -> bool
val subset : t -> t -> bool

(** Elements in [\[lo;hi\]] (inclusive). *)
val filter_range : lo:int -> hi:int -> t -> t

val pp : Format.formatter -> t -> unit
