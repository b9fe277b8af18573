(* Per-layer time attribution from an [Obs.Trace] recording.

   The traced loop records the bench's own spans around every call it
   makes into a layer plus the spans and instants the library already
   emits.  Events are drained between operations, at quiescence (no
   worker domain is inside a batch), so no span straddles a drain.
   The I/O probe runs once per emitted event on every domain, so it
   also counts the events; a drain follows any operation after which a
   quarter of a ring's capacity has been emitted, and the rings only
   overflow if one operation alone emits more than a ring holds.  Time
   spent draining is excluded from the loop's wall time.

   A span's self time is its duration minus the union of its child
   intervals: same-domain children nest by the per-domain Begin/End
   stack, and the [shard_batch] spans worker domains run during a
   router span are that span's cross-domain children.

   Two measurements are checked against each other.  The bench times
   each of its calls with its own clock; the driver row is the wall
   time outside those calls.  The other rows come from the recorded
   events.  On the main domain

     driver + self(main spans) + cross-domain wait = wall

   holds only as far as the events account for the time inside the
   calls: what emitting the bench spans costs, and what a dropped or
   unpaired event loses, is the gap.  A worker domain's time outside
   every [shard_batch] is its idle row; the part of its spans that
   ran outside every router span is its gap, time no main-domain row
   accounts for.  [unattributed_pct] is the largest gap.

   [Obs.Trace] allocates a domain's ring (8 MB at the default
   capacity) at the domain's first event after a [clear].  The bench
   emits one instant right after each [clear], outside the measured
   time, so the main domain's allocation does not land in the next
   call before its span begins; a worker's lands in its idle time. *)

type cell = { mutable calls : int; mutable total : float; mutable self : float }

type t = {
  capacity : int;
  main : int;
  router_span : string;  (** main-domain span whose workers are children *)
  cells : (string, cell) Hashtbl.t;
  busy : (string * int, float) Hashtbl.t;  (** (span, domain) -> total *)
  rooted : (string * string, float) Hashtbl.t;  (** (root, span) -> self *)
  dom_self : (int, float) Hashtbl.t;
  dom_top : (int, float) Hashtbl.t;
  escaped : (int, float) Hashtbl.t;  (** worker span time outside router spans *)
  instants : (string, int) Hashtbl.t;  (** "cat/name" -> count *)
  mutable cross_wait : float;
  mutable dropped : int;
  mutable unmatched : int;
  mutable wall : float;
  mutable inside_calls : float;
  mutable seg_start : float;
  emitted : int Atomic.t;
  mutable drained_at : int;  (** [emitted] at the last drain *)
  mutable op_start : int;
  mutable max_op_events : int;
  mutable first_window : Obs.Json.t option;
}

let now = Samples.now

let start ?(capacity = 1 lsl 20) ~router_span ~probe () =
  let emitted = Atomic.make 0 in
  Obs.Trace.set_clock now;
  Obs.Metrics.set_clock now;
  Obs.Trace.set_io_probe (fun () ->
      Atomic.incr emitted;
      probe ());
  Obs.Trace.enable ~capacity ();
  Obs.Trace.instant ~cat:"bench" "ring";
  {
    capacity;
    main = (Domain.self () :> int);
    router_span;
    cells = Hashtbl.create 16;
    busy = Hashtbl.create 16;
    rooted = Hashtbl.create 16;
    dom_self = Hashtbl.create 4;
    dom_top = Hashtbl.create 4;
    escaped = Hashtbl.create 4;
    instants = Hashtbl.create 16;
    cross_wait = 0.0;
    dropped = 0;
    unmatched = 0;
    wall = 0.0;
    inside_calls = 0.0;
    seg_start = now ();
    emitted;
    drained_at = 0;
    op_start = 0;
    max_op_events = 0;
    first_window = None;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let union_len ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

type span = {
  name : string;
  dom : int;
  t0 : float;
  t1 : float;
  mutable self : float;
  root : string;  (** outermost span on the same domain *)
  top : bool;
}

type frame = {
  f_name : string;
  f_root : string;
  f_t0 : float;
  mutable kids : (float * float) list;
}

let process t events =
  let stacks = Hashtbl.create 4 in
  let spans = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.dom with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.dom s;
            s
      in
      match e.kind with
      | Obs.Trace.Instant ->
          let key = e.cat ^ "/" ^ e.name in
          Hashtbl.replace t.instants key
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.instants key))
      | Obs.Trace.Begin ->
          let f_root = match !stack with p :: _ -> p.f_root | [] -> e.name in
          stack := { f_name = e.name; f_root; f_t0 = e.ts; kids = [] } :: !stack
      | Obs.Trace.End -> (
          match !stack with
          | f :: rest when f.f_name = e.name ->
              stack := rest;
              let self =
                e.ts -. f.f_t0 -. union_len ~lo:f.f_t0 ~hi:e.ts f.kids
              in
              (match rest with
              | p :: _ -> p.kids <- (f.f_t0, e.ts) :: p.kids
              | [] -> ());
              spans :=
                { name = e.name; dom = e.dom; t0 = f.f_t0; t1 = e.ts; self;
                  root = f.f_root; top = rest = [] }
                :: !spans
          | _ -> t.unmatched <- t.unmatched + 1))
    events;
  Hashtbl.iter (fun _ s -> t.unmatched <- t.unmatched + List.length !s) stacks;
  (* Cross-domain children: worker shard batches inside a router span
     are time the router spent waiting, not router work. *)
  let worker_batches =
    List.filter_map
      (fun s ->
        if s.name = "shard_batch" && s.dom <> t.main then Some (s.t0, s.t1)
        else None)
      !spans
  in
  let routers =
    List.filter (fun s -> s.name = t.router_span && s.dom = t.main) !spans
  in
  if worker_batches <> [] then
    List.iter
      (fun s ->
        let inside =
          List.filter (fun (a, b) -> b > s.t0 && a < s.t1) worker_batches
        in
        let wait = union_len ~lo:s.t0 ~hi:s.t1 inside in
        s.self <- s.self -. wait;
        t.cross_wait <- t.cross_wait +. wait)
      routers;
  List.iter
    (fun s ->
      if s.top && s.dom <> t.main then
        let covered =
          List.fold_left
            (fun a r -> a +. Float.max 0.0 (Float.min s.t1 r.t1 -. Float.max s.t0 r.t0))
            0.0 routers
        in
        bump t.escaped s.dom (s.t1 -. s.t0 -. covered))
    !spans;
  List.iter
    (fun s ->
      let c =
        match Hashtbl.find_opt t.cells s.name with
        | Some c -> c
        | None ->
            let c = { calls = 0; total = 0.0; self = 0.0 } in
            Hashtbl.add t.cells s.name c;
            c
      in
      let d = s.t1 -. s.t0 in
      c.calls <- c.calls + 1;
      c.total <- c.total +. d;
      c.self <- c.self +. s.self;
      bump t.busy (s.name, s.dom) d;
      bump t.rooted (s.root, s.name) s.self;
      bump t.dom_self s.dom s.self;
      if s.top then bump t.dom_top s.dom d)
    !spans

let drain t =
  t.wall <- t.wall +. (now () -. t.seg_start);
  t.dropped <- t.dropped + Obs.Trace.dropped ();
  if t.first_window = None then t.first_window <- Some (Obs.Trace.to_chrome_json ());
  let events = Obs.Trace.events () in
  Obs.Trace.clear ();
  Obs.Trace.instant ~cat:"bench" "ring";
  process t events;
  t.drained_at <- Atomic.get t.emitted;
  t.seg_start <- now ()

(* Time one bench call into a layer, inside a bench span. *)
let call t name f =
  let t0 = now () in
  let r = Obs.Trace.with_span ~cat:"bench" name f in
  t.inside_calls <- t.inside_calls +. (now () -. t0);
  r

let op_done t =
  let e = Atomic.get t.emitted in
  t.max_op_events <- max t.max_op_events (e - t.op_start);
  if e - t.drained_at >= t.capacity / 4 then drain t;
  t.op_start <- Atomic.get t.emitted

let finish t =
  drain t;
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Trace.reset_io_probe ();
  Obs.Metrics.reset_clock ()

let cell t name =
  Option.value ~default:{ calls = 0; total = 0.0; self = 0.0 }
    (Hashtbl.find_opt t.cells name)

let self t name = (cell t name).self
let total t name = (cell t name).total
let calls t name = (cell t name).calls

(* Self time of span [name] when it ran under the outermost span
   [root]. *)
let self_under t ~root name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.rooted (root, name))

let instants t key = Option.value ~default:0 (Hashtbl.find_opt t.instants key)

(* Total duration of span [name] on each domain that ran it. *)
let busy_by_domain t name =
  Hashtbl.fold (fun (n, d) v acc -> if n = name then (d, v) :: acc else acc) t.busy []

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let top t d = get t.dom_top d

(* The wall time outside the bench's calls, by the bench's clock. *)
let driver t = t.wall -. t.inside_calls

let domains t =
  Hashtbl.fold (fun d _ acc -> if List.mem d acc then acc else d :: acc) t.dom_self
    [ t.main ]
  |> List.sort compare

(* The largest per-domain gap, as a percentage of the wall time. *)
let unattributed_pct t =
  if t.wall <= 0.0 then 0.0
  else
    List.fold_left
      (fun worst d ->
        let gap =
          if d = t.main then
            Float.abs (t.wall -. (driver t +. get t.dom_self d +. t.cross_wait))
          else get t.escaped d
        in
        Float.max worst (gap /. t.wall *. 100.0))
      0.0 (domains t)

let layer_of = function
  | "serve.router" | "shard_batch" -> "serve"
  | "query_batch" | "query" -> "indexing"
  | "directory" | "rank_select" | "payload" | "verify" | "repair" -> "secidx"
  | "planner.choose" | "planner.exec" -> "planner"
  | "wal.update" | "wal.query" -> "wal"
  | _ -> "other"

(* The per-layer table: one row per span name, then the driver's own
   row and each worker domain's idle time. *)
let table t =
  let rows =
    Hashtbl.fold
      (fun name c acc ->
        Obs.Json.Obj
          [
            ("layer", Obs.Json.String (layer_of name));
            ("span", Obs.Json.String name);
            ("calls", Obs.Json.Int c.calls);
            ("total_ms", Obs.Json.Float (c.total *. 1e3));
            ("self_ms", Obs.Json.Float (c.self *. 1e3));
          ]
        :: acc)
      t.cells []
    |> List.sort compare
  in
  let row layer ms =
    Obs.Json.Obj
      [
        ("layer", Obs.Json.String layer);
        ("span", Obs.Json.String "-");
        ("calls", Obs.Json.Int 0);
        ("total_ms", Obs.Json.Float ms);
        ("self_ms", Obs.Json.Float ms);
      ]
  in
  let idle =
    List.filter_map
      (fun d ->
        if d = t.main then None
        else Some (row (Printf.sprintf "idle(domain %d)" d) ((t.wall -. top t d) *. 1e3)))
      (domains t)
  in
  rows @ [ row "driver" (driver t *. 1e3); row "wait(workers)" (t.cross_wait *. 1e3) ]
  @ idle
