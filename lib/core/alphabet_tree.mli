(** The warm-up structure of §2.1 (Theorem 1): a complete binary tree
    [U] over the alphabet, with a compressed bitmap [I_{[al;ar]}(x)]
    at every node, the bitmaps of each level concatenated, and the
    prefix-cardinality array [A] for the complement trick.

    Space is [O(n·lg²σ)] bits; a range query merges the bitmaps of the
    [O(lg σ)] canonical subtrees and costs [O(T/B + lg σ)] I/Os, where
    [T] is the compressed size of the answer. *)

type t

(** [build device ~sigma x].  [complement] (default [true]) enables
    the answer-the-complement trick for results larger than [n/2].
    [schedule] selects which depths keep explicit bitmaps: [`All]
    (default, Theorem 1) or [`Doubling] (footnote 3: depths 1,2,4,…
    plus leaves — space drops to [O(n·lg σ + σ·lg²n)] with a slightly
    larger merge fan-in).  Every extent is gap-coded.  The index keeps
    [x] itself (which must not change afterwards) and no posting: a
    damaged level is re-derived from [x] by the pass that built it. *)
val build :
  ?complement:bool ->
  ?schedule:[ `All | `Doubling ] ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  t

val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** Batched execution (PR 5): same cover and complement decisions as
    [query] per unique range, with each node bitmap decoded at most
    once per batch and uncached payload runs prefetched. *)
val query_batch : t -> (int * int) array -> Indexing.Answer.t array

(** Number of tree levels ([lg σ + 1] for σ a power of two). *)
val levels : t -> int

(** The stored levels' tables, deepest first. *)
val tables : t -> Indexing.Stream_table.t list

val size_bits : t -> int
val instance_of : t -> Indexing.Instance.t

val instance :
  ?complement:bool ->
  ?schedule:[ `All | `Doubling ] ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  Indexing.Instance.t
