(* List-based reference for [Iosim.Buffer_pool]: the same LRU and
   SLRU replacement rules, written as plain list surgery with no
   hashing, no linked nodes and no re-hit shortcut, so differential
   tests can check the pool's fast paths against the rules alone.
   Lists are most-recently-used first. *)

type entry = {
  blk : int;
  mutable prefetched : bool;
  mutable reused : bool;
}

type t = {
  capacity : int;
  policy : Iosim.Buffer_pool.policy;
  protected_cap : int;
  mutable main : entry list; (* the LRU list, or probation *)
  mutable prot : entry list; (* protected segment *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable promotions : int;
  mutable evicted_reused : int;
}

let create ~policy ~capacity =
  {
    capacity;
    policy;
    protected_cap = capacity / 2;
    main = [];
    prot = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    promotions = 0;
    evicted_reused = 0;
  }

let find l blk = List.find_opt (fun e -> e.blk = blk) l
let without l blk = List.filter (fun e -> e.blk <> blk) l
let entry t blk = match find t.main blk with Some e -> Some e | None -> find t.prot blk
let mem t blk = t.capacity > 0 && entry t blk <> None
let occupancy t = List.length t.main + List.length t.prot
let protected_occupancy t = List.length t.prot

let split_last l =
  match List.rev l with [] -> None | last :: rest -> Some (last, List.rev rest)

let evict_one t =
  let victim =
    match split_last t.main with
    | Some (v, rest) ->
        t.main <- rest;
        Some v
    | None -> (
        match split_last t.prot with
        | Some (v, rest) ->
            t.prot <- rest;
            Some v
        | None -> None)
  in
  Option.iter
    (fun v ->
      t.evictions <- t.evictions + 1;
      if v.reused then t.evicted_reused <- t.evicted_reused + 1)
    victim

let insert t blk ~prefetched =
  if occupancy t >= t.capacity then evict_one t;
  t.main <- { blk; prefetched; reused = false } :: t.main

let hit t e ~in_prot =
  t.hits <- t.hits + 1;
  e.reused <- true;
  if in_prot then t.prot <- e :: without t.prot e.blk
  else begin
    t.main <- without t.main e.blk;
    if t.policy = `Lru || t.protected_cap = 0 then t.main <- e :: t.main
    else begin
      t.prot <- e :: t.prot;
      t.promotions <- t.promotions + 1;
      if List.length t.prot > t.protected_cap then
        match split_last t.prot with
        | Some (d, rest) ->
            t.prot <- rest;
            t.main <- d :: t.main
        | None -> ()
    end
  end

let access t blk =
  if t.capacity = 0 then false
  else
    match (find t.main blk, find t.prot blk) with
    | Some e, _ ->
        hit t e ~in_prot:false;
        true
    | None, Some e ->
        hit t e ~in_prot:true;
        true
    | None, None ->
        t.misses <- t.misses + 1;
        insert t blk ~prefetched:false;
        false

let insert_prefetched t blk =
  if t.capacity = 0 || entry t blk <> None then false
  else begin
    insert t blk ~prefetched:true;
    true
  end

let consume_prefetch t blk =
  match entry t blk with
  | Some e when e.prefetched ->
      e.prefetched <- false;
      true
  | _ -> false

let invalidate t blk =
  t.main <- without t.main blk;
  t.prot <- without t.prot blk

let clear t =
  t.main <- [];
  t.prot <- []

let counters t =
  {
    Iosim.Buffer_pool.hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    promotions = t.promotions;
    evicted_reused = t.evicted_reused;
  }
