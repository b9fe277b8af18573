(** Fully dynamic secondary index — §4.3, Theorem 7.

    Every materialized level of the weight-balanced structure (and the
    pruned-leaf store) is represented as a buffered compressed bitmap
    index ({!Buffered_bitmap}) whose "alphabet" is the nodes of that
    level, exactly as the paper describes.  [change x i α] routes
    through the frozen tree (see {!Frozen}): one [Remove] and one
    [Add] per materialized level, each costing amortized
    [O(lg n / b)] I/Os, for a total of [O(lg n · lg lg n / b)].

    Deletions follow §4: the alphabet is extended with a character
    [∞] that no range query matches, and [delete] rewrites the
    position to [∞].  Global rebuilds (every [n/2] updates, and
    whenever the string doubles by appends) play the role of the
    paper's amortized subtree rebuilding.

    The levels are stored through {!Wbb.store_levels}, the
    per-character count array (deletion character included) through
    {!Char_counts}. *)

type t

val build : ?c:int -> ?complement:bool -> Iosim.Device.t -> sigma:int -> int array -> t

(** Current string length (including deleted positions). *)
val length : t -> int

(** Character at a position ([sigma] denotes a deleted position). *)
val char_at : t -> int -> int

(** [change t ~pos ch] sets position [pos] to character [ch]. *)
val change : t -> pos:int -> int -> unit

(** Mark a position deleted (changes it to [∞]). *)
val delete : t -> pos:int -> unit

(** Append a character at position [length t]. *)
val append : t -> int -> unit

val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** Batched execution (PR 5): the range evaluator of [query] per
    unique range, with each stored node's posting read at most once
    per batch. *)
val query_batch : t -> (int * int) array -> Indexing.Answer.t array

val rebuilds : t -> int

(** The per-character count array, the deletion character [sigma]
    included (for white-box tests). *)
val counts : t -> Char_counts.t

val size_bits : t -> int

(** The index as it stands, as an {!Indexing.Instance.t} ([n] and
    [size_bits] are read now: package again after updates). *)
val instance_of : t -> Indexing.Instance.t

(** [build], then {!instance_of}. *)
val instance :
  ?c:int -> ?complement:bool -> Iosim.Device.t -> sigma:int -> int array ->
  Indexing.Instance.t
