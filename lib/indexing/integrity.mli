(** Detect-or-repair hooks packaged with an index instance.

    [scrub ()] runs a counted verification pass over every protected
    extent and returns the number found corrupt (dirty extents are
    resealed, not counted).  [repair ()] restores all corrupt extents
    from primary data, charging the rebuild I/Os to the device stats;
    it raises [Secidx_error.Corrupt] when an extent has no rebuild
    source.  Used by [Instance.verified_query].

    Repair sources (DESIGN.md §5): the tree indexes re-derive their
    stored levels and count arrays from the string they keep, so no
    second copy of the index stays in memory; extents mutated in place
    keep the image a lazy seal checksums from; baseline tables and WAL
    runs keep their postings; [Approx_index]'s hashed copies have no
    hook. *)

type t = { scrub : unit -> int; repair : unit -> unit }

(** Integrity over a (dynamic) set of frames: scrub verifies each,
    repair rewrites the corrupt ones from their rebuild closures. *)
val of_frames : (unit -> Iosim.Frame.t list) -> t

(** Hooks re-resolved on every call, for a structure whose rebuild
    swaps its substructures out. *)
val current : (unit -> t) -> t

(** Compose the hooks of independent substructures. *)
val combine : t list -> t
