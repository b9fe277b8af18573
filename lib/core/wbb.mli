(** The pruned weight-balanced tree [W] of §2.2.

    The [n] character instances of [x], ordered primarily by character
    and secondarily by position, are the (conceptual) leaves; we call
    their indices in this order {e entries}.  The tree is [c]-ary and
    balanced, so a node at depth [d] from the root has weight
    [Θ(n/c^d)].  It is pruned: a node all of whose entries carry the
    same character keeps no children.  Pruned leaves therefore cover
    entry ranges of a single character, which guarantees that every
    alphabet range query covers a disjoint union of whole subtrees —
    the canonical decomposition computed by {!decompose}.

    This module is the in-memory combinatorial structure, plus the
    one decision of which node bitmaps a tree index stores
    ({!doubling_levels}, {!store_levels}): {!Static_index} (and
    {!Approx_index}'s hashed copies of its nodes), {!Append_index}
    and {!Dynamic_index} all store their levels through it.  The tree
    keeps no entry arrays: {!level_positions} reads the string. *)

type node = {
  mutable id : int;  (** breadth-first identifier *)
  level : int;  (** 1 = root *)
  s : int;  (** first entry covered (inclusive) *)
  e : int;  (** one past the last entry covered *)
  clo : int;  (** character of entry [s] *)
  chi : int;  (** character of entry [e-1] *)
  children : node array;  (** empty iff pruned leaf *)
  mutable leaf_index : int;  (** rank among leaves, [-1] for internal *)
  mutable level_index : int;
      (** rank among {e internal} nodes of the same level, [-1] for
          leaves *)
}

type t = {
  root : node;
  height : int;  (** deepest level *)
  c : int;
  n : int;
  sigma : int;
  nodes : node array;  (** by [id], breadth-first *)
  leaves : node array;  (** left-to-right *)
  internal_by_level : node array array;
      (** [internal_by_level.(l)] = internal nodes at level [l+1],
          left-to-right *)
  char_start : int array;
      (** [char_start.(a)] = first entry of character [a]; length
          [sigma + 1] (the prefix-count array [A] of §2.1) *)
}

(** [build ~c ~sigma x].  [c >= 2] is the branching parameter. *)
val build : c:int -> sigma:int -> int array -> t

val weight : node -> int
val is_leaf : node -> bool

(** Canonical decomposition: maximal nodes whose entry range is fully
    inside [\[s;e)], in left-to-right order.  Requires [s] and [e] to
    be character boundaries (values of [char_start]) — guaranteed for
    alphabet range queries.  Also returns the list of visited
    (partially overlapping) nodes, i.e. the two root-to-boundary
    spines, for I/O accounting of the descent. *)
val decompose : t -> s:int -> e:int -> node list * node list

(** [frontier t v ~stored] expands [v] to the explicitly-stored nodes
    covering exactly its subtree: walking down, a node [u] is taken
    when [stored u] holds (leaves must always satisfy [stored]).  The
    result is in left-to-right order. *)
val frontier : t -> node -> stored:(node -> bool) -> node list

(** Total number of nodes; the paper bounds it by [O(σ·lg n)] for the
    pruned tree. *)
val node_count : t -> int

(** The levels [1, 2, 4, 8, ...] up to [height]: the internal levels
    whose bitmaps §2.2 stores. *)
val doubling_levels : int -> int list

(** [level_positions t x nodes]: the positions of [nodes] (one level's
    nodes left to right: an [internal_by_level] row or [leaves]) from
    one position-order pass, with no sort, over the first [n]
    characters of [x], the string [t] was built from.  The pass
    {!store_levels} runs per level, and a stored level's repair. *)
val level_positions : t -> int array -> node array -> Cbitmap.Posting.t array

(** [store_levels t x ~levels store] stores the bitmaps of the internal
    nodes of each level in [levels] and of every pruned leaf: one
    [store] call per level that has internal nodes (its nodes'
    {!level_positions}), levels ascending, then one for the leaves —
    the order that fixes every stored extent's device offset.  [x]
    must be the string [t] was built from (raises [Invalid_argument]
    if its length is not [n]).  Returns [mat] ([mat.(l)] iff [l] is
    in [levels], for [l] in [0 .. height]), the per-level storages
    (indexed by level, [None] where nothing is stored) and the leaf
    storage. *)
val store_levels :
  t ->
  int array ->
  levels:int list ->
  (Cbitmap.Posting.t array -> 'a) ->
  bool array * 'a option array * 'a

(** [storages t level_store leaf_store] pairs each storage
    {!store_levels} returned with the nodes whose postings it holds,
    for {!level_positions}: the leaves first, then levels ascending. *)
val storages : t -> 'a option array -> 'a -> ('a * node array) list
