(** Position sets as one bit per position, 32 to a native-int word,
    reused from query to query: the WAL store's shadow and answer
    sets, a merge's shadow, and the hashed values an approximate-index
    probe reads.  Not safe to share between domains. *)

type t

(** An empty set with no words. *)
val create : unit -> t

(** [clear t ~n] empties [t] and makes room for positions [0 .. n-1],
    zeroing only the [⌈n/32⌉] words that room needs. *)
val clear : t -> n:int -> unit

(** [add t p] adds [p]; raises [Invalid_argument] past the room the
    last {!clear} made. *)
val add : t -> int -> unit

(** Membership; [false] past the room the last {!clear} made. *)
val mem : t -> int -> bool

(** The set's positions, in increasing order, as a fresh posting. *)
val to_posting : t -> Posting.t
