(** A per-character integer array of the tree indexes, read by a
    query to decide the complement rule: the count array of the
    dynamic indexes (§4.1, DESIGN §3b.5; how many positions of the
    string hold each character, 32-bit fields) and the prefix-count
    array [A] of {!Static_index} and {!Alphabet_tree} (§2.1).

    One fixed-width field per entry, in one framed ({!Iosim.Frame}),
    block-aligned extent charged to the ["directory"] ledger
    component, under its owner's frame magic. *)

type t

(** [store device ~magic ~width counts] writes [counts] as a new
    extent of [width]-bit fields. *)
val store : Iosim.Device.t -> magic:int -> width:int -> int array -> t

(** Counted read of one character's count. *)
val get : t -> int -> int

(** [add t ch delta] adds [delta] to [ch]'s count: a counted
    read-modify-write of its field, after which the frame is
    invalidated (resealed by the next scrub). *)
val add : t -> int -> int -> unit

(** The extent holding the fields; its length is the array's size in
    bits. *)
val region : t -> Iosim.Device.region

(** [frame t ~live] is the extent's frame, for the index's scrub and
    repair; its repair rewrites the array [live ()] recomputes from
    the index's string or tree. *)
val frame : t -> live:(unit -> int array) -> Iosim.Frame.t
