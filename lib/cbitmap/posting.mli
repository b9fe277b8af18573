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

(** [adopt a] is {!of_sorted_array} without the copy: same check, and
    the posting is [a] itself, so the caller must not mutate [a]
    afterwards.  For arrays a decoder has just filled. *)
val adopt : int array -> t

(** Positions of set bits of [s], where [s.[i] = '1']. *)
val of_bitstring : string -> t

val to_list : t -> int list
val to_array : t -> int array

(** [unsafe_to_array t] is [t]'s own sorted array, not a copy: the
    inverse of {!adopt}, for bulk encoders that read a posting in one
    pass.  The caller must not mutate it. *)
val unsafe_to_array : t -> int array

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

(** [complement ~n t] is [{0..n-1} \ t], written by
    {!Writer.add_complement}; raises [Invalid_argument] unless [t]
    lies in [\[0, n)]. *)
val complement : n:int -> t -> t

(** [check_slice a ~off ~len] raises [Invalid_argument] unless
    [a.(off) .. a.(off + len - 1)] lies inside [a] and is strictly
    increasing and non-negative — the check {!adopt} makes, for a
    decode that filled part of a reused buffer. *)
val check_slice : int array -> off:int -> len:int -> unit

(** Zeroed bitmap words for {!union_slices}'s dense path, grown on
    demand and left all zero after every union, so a structure that
    keeps one allocates no words once it has grown to its universe.
    Not safe to share between domains. *)
type scratch

val scratch : unit -> scratch

(** [union_slices ?scratch slices] is the union of the slices
    [(a, off, len)], each the elements [a.(off) .. a.(off + len - 1)],
    which must be strictly increasing and non-negative (a posting's
    worth, as {!check_slice} checks).  When the slices hold at least
    one element per 64 positions of [\[0, max\]]
    (total * 64 >= max + 1) they are scattered into the bitmap words of
    [scratch] (a fresh one if absent) and scanned once from the
    smallest element's word, each word cleared as it is read;
    otherwise they are merged pairwise, in rounds.  The result never
    shares storage with an input, so slices may point into a buffer
    the caller reuses. *)
val union_slices : ?scratch:scratch -> (int array * int * int) list -> t

(** Multi-way union: {!union_slices} over the whole postings, except
    that no input or a single non-empty one is returned as it is (the
    result may then share storage with an input; postings are
    immutable). *)
val union_many : t list -> t

(** Write-once assembly of a posting from parts that lie in
    increasing, disjoint order, each shifted by its own offset — the
    sharded router's answer writer.  [create total] declares the exact
    number of elements; each part is checked only at its seam (its
    first element must lie above the last element written) and copied
    once into the one answer array; {!finish} returns it.  Every
    violation raises [Invalid_argument]. *)
module Writer : sig
  type posting := t
  type t

  (** [create total]; raises [Invalid_argument] if [total < 0]. *)
  val create : int -> t

  (** [add w ~shift p] writes [p]'s elements plus [shift].  A part that
      is the whole answer ([shift = 0], nothing written yet and
      [cardinal p = total]) becomes the answer itself, uncopied.
      Raises on an element that would be negative, on a seam that
      overlaps or is out of order, and past [total] elements. *)
  val add : t -> shift:int -> posting -> unit

  (** [add_complement w ~shift ~n p] writes the positions of
      [\[0, n)] not in [p], plus [shift] — the runs between [p]'s
      elements — with the checks of {!add}; [p] must lie in
      [\[0, n)]. *)
  val add_complement : t -> shift:int -> n:int -> posting -> unit

  (** The assembled posting; raises unless exactly [total] elements
      were written.  The writer must not be used afterwards. *)
  val finish : t -> posting
end

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val equal : t -> t -> bool
val subset : t -> t -> bool

(** [filter p t] keeps the elements satisfying [p], in order.  [p] is
    applied exactly once to each element, in increasing order. *)
val filter : (int -> bool) -> t -> t

(** Elements in [\[lo;hi\]] (inclusive). *)
val filter_range : lo:int -> hi:int -> t -> t

val pp : Format.formatter -> t -> unit
