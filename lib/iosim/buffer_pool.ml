(* Residency tracking with two replacement policies:

   - [`Lru]: the seed policy — one doubly-linked recency list.
   - [`Segmented]: scan-resistant SLRU/2Q.  A missed block enters a
     probationary segment; only a re-access promotes it into the
     protected segment (capacity/2 blocks).  Eviction always takes the
     probationary tail first, so a long sequential scan — which never
     re-touches a block — churns probation and cannot displace the
     protected set (hot directory/metadata blocks).  A hit never
     evicts: promotion past the protected cap demotes the protected
     tail back to probation, which may transiently overflow its
     nominal share; only a miss-insert enforces the total capacity.

   Both policies share the node/list machinery; nodes carry the
   per-block bookkeeping the prefetch counters and the scan-resistance
   tests need ([prefetched], [reused]).

   Re-hit memo: [last_hit] is the node whose hit was the pool's most
   recent structural operation.  A hit leaves its node at the head of
   its segment with [reused] set (under [`Segmented] a probationary hit
   promotes, and the demotion it may trigger takes the protected
   tail, never the node just pushed), so hitting the same node again
   would relink it in place and change nothing but [hits].  Every
   insert (hence every eviction), invalidate and clear resets the
   memo; a hit on another node replaces it.  The device's decode charges
   re-touch the block just touched millions of times per run, and the
   memo turns each of those into one comparison, or a whole block run
   of them into one addition ([rehits]). *)

(* Always-on metrics (PR 9): process-wide replacement-pressure view
   beside the per-pool lifetime counters. *)
let m_evictions = Obs.Metrics.counter "iosim_pool_evictions_total"
let m_promotions = Obs.Metrics.counter "iosim_pool_promotions_total"

type policy = [ `Lru | `Segmented ]
type seg = Probation | Protected

type node = {
  blk : int;
  mutable seg : seg;
  mutable prefetched : bool; (* inserted by readahead, no demand hit yet *)
  mutable reused : bool; (* ever re-accessed while resident *)
  mutable prev : node option;
  mutable next : node option;
}

type chain = {
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable len : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  promotions : int;
  evicted_reused : int;
}

type t = {
  capacity : int;
  policy : policy;
  protected_cap : int;
  table : (int, node) Hashtbl.t;
  main : chain; (* the LRU list, or the probationary segment *)
  prot : chain; (* protected segment; unused under [`Lru] *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable promotions : int;
  mutable evicted_reused : int;
  mutable last_hit : node; (* [no_node] when unset *)
}

(* Sentinel for an unset memo: never in [table], and no block id is
   negative. *)
let no_node =
  { blk = -1; seg = Probation; prefetched = false; reused = false; prev = None; next = None }

let create ?(policy = `Lru) ~capacity_blocks () =
  if capacity_blocks < 0 then invalid_arg "Buffer_pool.create";
  {
    capacity = capacity_blocks;
    policy;
    protected_cap = capacity_blocks / 2;
    table = Hashtbl.create (max 16 capacity_blocks);
    main = { head = None; tail = None; len = 0 };
    prot = { head = None; tail = None; len = 0 };
    hits = 0;
    misses = 0;
    evictions = 0;
    promotions = 0;
    evicted_reused = 0;
    last_hit = no_node;
  }

let capacity t = t.capacity
let policy t = t.policy

let counters t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    promotions = t.promotions;
    evicted_reused = t.evicted_reused;
  }

let chain_of t n = match n.seg with Probation -> t.main | Protected -> t.prot

let unlink t n =
  let c = chain_of t n in
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  c.len <- c.len - 1

let push_front c n =
  n.next <- c.head;
  n.prev <- None;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n;
  c.len <- c.len + 1

let mem t blk = t.capacity > 0 && Hashtbl.mem t.table blk

let invalidate t blk =
  t.last_hit <- no_node;
  match Hashtbl.find_opt t.table blk with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table blk

let evict_node t n =
  unlink t n;
  Hashtbl.remove t.table n.blk;
  t.evictions <- t.evictions + 1;
  Obs.Metrics.incr m_evictions;
  if n.reused then t.evicted_reused <- t.evicted_reused + 1;
  if !Obs.Trace.on then
    Obs.Trace.instant ~cat:"dev"
      ~attrs:[ ("block", Obs.Trace.Int n.blk) ]
      "evict"

(* Victim selection: probationary tail first (the scan-resistance
   property); the protected tail only when probation is empty.  Under
   [`Lru] everything lives in [main], so this is plain tail eviction. *)
let evict_one t =
  match t.main.tail with
  | Some n -> evict_node t n
  | None -> ( match t.prot.tail with Some n -> evict_node t n | None -> ())

(* Promote a probationary node on re-access; a demotion past the
   protected cap goes back to probation MRU (never straight out). *)
let promote t n =
  unlink t n;
  n.seg <- Protected;
  push_front t.prot n;
  t.promotions <- t.promotions + 1;
  Obs.Metrics.incr m_promotions;
  if t.prot.len > t.protected_cap then
    match t.prot.tail with
    | Some d ->
        unlink t d;
        d.seg <- Probation;
        push_front t.main d
    | None -> ()

let on_hit t n =
  t.hits <- t.hits + 1;
  n.reused <- true;
  match t.policy with
  | `Lru ->
      unlink t n;
      push_front t.main n
  | `Segmented -> (
      match n.seg with
      | Protected ->
          unlink t n;
          push_front t.prot n
      | Probation ->
          if t.protected_cap = 0 then begin
            unlink t n;
            push_front t.main n
          end
          else promote t n)

let insert t blk ~prefetched =
  t.last_hit <- no_node;
  if Hashtbl.length t.table >= t.capacity then evict_one t;
  let n =
    { blk; seg = Probation; prefetched; reused = false; prev = None; next = None }
  in
  Hashtbl.replace t.table blk n;
  push_front t.main n

(* A node whose prefetch flag is still set falls through to the full
   path, so [rehit] is also exact for callers that hit a prefetched
   block without consuming its flag (a write hit). *)
let rehits t blk k =
  let n = t.last_hit in
  if n.blk = blk && not n.prefetched then begin
    t.hits <- t.hits + k;
    true
  end
  else false

let rehit t blk = rehits t blk 1

let access t blk =
  if t.capacity = 0 then false
  else if rehit t blk then true
  else
    match Hashtbl.find_opt t.table blk with
    | Some n ->
        on_hit t n;
        t.last_hit <- n;
        true
    | None ->
        t.misses <- t.misses + 1;
        insert t blk ~prefetched:false;
        false

let insert_prefetched t blk =
  if t.capacity = 0 || Hashtbl.mem t.table blk then false
  else begin
    insert t blk ~prefetched:true;
    true
  end

let consume_prefetch t blk =
  match Hashtbl.find_opt t.table blk with
  | Some n when n.prefetched ->
      n.prefetched <- false;
      true
  | _ -> false

let clear t =
  t.last_hit <- no_node;
  Hashtbl.reset t.table;
  t.main.head <- None;
  t.main.tail <- None;
  t.main.len <- 0;
  t.prot.head <- None;
  t.prot.tail <- None;
  t.prot.len <- 0

let occupancy t = Hashtbl.length t.table
let protected_occupancy t = t.prot.len
