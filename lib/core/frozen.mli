(** Frozen-boundary view of a {!Wbb} tree, used by the dynamic
    structures (§4).

    The paper maintains weight balance by rebuilding subtrees; we
    instead freeze the tree's node boundaries — each node owns the
    half-open key interval (character, position) of its build-time
    entries — and route every later update through those frozen
    boundaries, rebuilding globally once enough updates accumulate
    (same amortized cost profile, see DESIGN.md).  Routing is
    deterministic: a key always belongs to exactly one node per level,
    so an [Add] and its matching [Remove] reach the same stored
    bitmaps.

    After updates a leaf may hold characters outside its build-time
    character (keys inserted between frozen boundaries), so range
    decomposition distinguishes {e partial} leaves whose contents a
    query must filter by current character. *)

type key = int * int (* (character, position), lexicographic *)

type t

(** [make tree x ~sigma_total] computes frozen boundaries from [x],
    the string [tree] was built from (its first [n] characters): every
    node starts at a leaf start, and the leaves' pass
    ({!Wbb.level_positions}) gives each leaf's first (character,
    position) entry.  [sigma_total] is the exclusive upper bound on
    characters (include the deletion character [∞] here). *)
val make : Wbb.t -> int array -> sigma_total:int -> t

val tree : t -> Wbb.t

(** Key interval owned by a node: [lo_key] inclusive, [hi_key]
    exclusive. *)
val lo_key : t -> Wbb.node -> key

val hi_key : t -> Wbb.node -> key

(** Root-to-leaf path owning [key]: every node on it contains the key
    in its interval.  The stored bitmaps of all materialized nodes on
    this path must reflect an update at [key]. *)
val route_path : t -> key -> Wbb.node list

(** [decompose t ~klo ~khi] splits the key range [\[klo; khi)] into:
    nodes fully inside (canonical, left-to-right), leaves partially
    overlapping (at most two, to be read and filtered), and the
    visited internal spine (for descent I/O accounting). *)
val decompose :
  t -> klo:key -> khi:key -> Wbb.node list * Wbb.node list * Wbb.node list

(** [cover t ~mat ~lo ~hi] reads the decomposition of characters
    [lo..hi] for a query: the stored nodes answering it, left to right
    (each canonical node's frontier of leaves and of the internal
    levels [l] with [mat.(l)]); the partial leaves, to be read and
    filtered; and the nodes a descent inspects (the spine, then the
    canonical nodes). *)
val cover :
  t ->
  mat:bool array ->
  lo:int ->
  hi:int ->
  Wbb.node list * Wbb.node list * Wbb.node list

(** The storage key of a node whose bitmap is stored: [(-1, leaf
    index)] for a leaf, [(level, index within the level)] for an
    internal node of a level [l] with [levels.(l)] present; [None]
    for any other node. *)
val key : levels:'a option array -> Wbb.node -> (int * int) option
