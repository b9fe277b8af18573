(** The per-character count array of the dynamic indexes (§4.1,
    DESIGN §3b.5): how many positions of the string hold each
    character, read by a query to decide the complement rule.

    One 32-bit field per character, in one framed ({!Iosim.Frame}),
    block-aligned extent charged to the ["directory"] ledger
    component.  {!Append_index} and {!Dynamic_index} each keep one,
    under their own frame magic. *)

type t

(** [store device ~magic counts] writes [counts] as a new extent. *)
val store : Iosim.Device.t -> magic:int -> int array -> t

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
    repair; its repair rewrites the counts [live ()] recomputes from
    the live string. *)
val frame : t -> live:(unit -> int array) -> Iosim.Frame.t
