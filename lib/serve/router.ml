(* Scatter/gather router over position shards (PR 6).

   Two execution modes with one code path for planning and merging:

   - [Sequential]: shards run in the caller's domain, in shard order.
     The differential baseline — sharded answers must be bit-identical
     to the unsharded instance whatever the mode.

   - [Domains]: one worker domain per non-empty shard, each with a
     private mailbox (mutex + condition).  A batch is scattered to
     every worker, executed via the shard's warm [Indexing.Batch]
     path, and gathered behind a countdown latch.

   Either way the router normalizes the batch first
   ([Indexing.Batch.normalize]) and scatters only its distinct clamped
   ranges, so each shard executes each distinct range once; it then
   writes each distinct global answer once, on the calling domain,
   from the shards' local compressed answers ([assemble]), and every
   slot of that range shares the one immutable posting.  A shard's own
   planner sees a batch that is already normalized, so its execution
   order, and every I/O counter, is what the raw batch would give.

   Memory safety across domains relies on confinement plus two
   handshakes: a worker touches only its shard's device and instance;
   task and result values cross domains only through the mailbox mutex
   (publish task) and the latch mutex (publish result rows), each of
   which establishes the happens-before edge for everything written
   before it.  Shard device counters are read by [shard_stats] only
   after such a handshake, i.e. at quiescence. *)

(* Always-on metrics (PR 9): mailbox backlog across all workers — the
   serving layer's congestion signal.  +1 when a batch is posted, -1
   when a worker dequeues it; a scrape mid-flight reads the number of
   posted-but-not-yet-started batches. *)
let g_queue_depth = Obs.Metrics.gauge "serve_queue_depth"
let m_scatters = Obs.Metrics.counter "serve_scatters_total"

module Latch = struct
  type t = { m : Mutex.t; c : Condition.t; mutable left : int }

  let create left = { m = Mutex.create (); c = Condition.create (); left }

  let arrive l =
    Mutex.lock l.m;
    l.left <- l.left - 1;
    if l.left <= 0 then Condition.broadcast l.c;
    Mutex.unlock l.m

  let wait l =
    Mutex.lock l.m;
    while l.left > 0 do
      Condition.wait l.c l.m
    done;
    Mutex.unlock l.m
end

(* A worker ships its shard's failure through the slot instead of
   dying with it: the latch must count every worker, or the router
   would wait forever. *)
type shard_result =
  | Rows of Indexing.Answer.t array
  | Failed of exn * Printexc.raw_backtrace

type task =
  | Batch of {
      ranges : (int * int) array;
      slot : shard_result option ref;
      latch : Latch.t;
    }
  | Stop

type worker = {
  shard : Shard.t;
  mailbox : task Queue.t;
  m : Mutex.t;
  c : Condition.t;
  domain : unit Domain.t;
}

type mode = Sequential | Domains

type t = {
  shards : Shard.t array;
  sigma : int option; (* the instances' alphabet; [None]: every shard empty *)
  mode : mode;
  workers : worker array; (* empty in Sequential mode *)
  mutable live : bool;
}

let shards t = t.shards
let mode t = t.mode

let post w task =
  Mutex.lock w.m;
  Queue.push task w.mailbox;
  Condition.signal w.c;
  Mutex.unlock w.m

let rec worker_loop (shard, mailbox, m, c) =
  Mutex.lock m;
  while Queue.is_empty mailbox do
    Condition.wait c m
  done;
  let task = Queue.pop mailbox in
  Mutex.unlock m;
  match task with
  | Stop -> ()
  | Batch { ranges; slot; latch } ->
      Obs.Metrics.add_gauge g_queue_depth (-1.0);
      (slot :=
         Some
           (try Rows (Shard.run_batch shard ranges)
            with e -> Failed (e, Printexc.get_raw_backtrace ())));
      Latch.arrive latch;
      worker_loop (shard, mailbox, m, c)

let create ?(mode = Sequential) shards =
  let workers =
    match mode with
    | Sequential -> [||]
    | Domains ->
        Array.of_list
          (List.filter_map
             (fun shard ->
               if Shard.instance shard = None then None
               else begin
                 let mailbox = Queue.create () in
                 let m = Mutex.create () and c = Condition.create () in
                 let domain =
                   Domain.spawn (fun () -> worker_loop (shard, mailbox, m, c))
                 in
                 Some { shard; mailbox; m; c; domain }
               end)
             (Array.to_list shards))
  in
  let sigma =
    Array.fold_left
      (fun acc s ->
        match (acc, Shard.instance s) with
        | None, Some i -> Some i.Indexing.Instance.sigma
        | acc, _ -> acc)
      None shards
  in
  { shards; sigma; mode; workers; live = true }

let domains_used t =
  match t.mode with Sequential -> 1 | Domains -> Array.length t.workers

(* Write answer [j] once: sized from the parts' cardinalities, each
   part shifted by its shard's base and a complement written as the
   runs between its excluded positions.  Slices are disjoint and in
   shard order, so the parts concatenate with no sort or dedup; the
   writer checks each seam.  A lone part that is the whole answer
   (shard 0's [Direct]) is returned uncopied. *)
let assemble parts j =
  let total =
    Array.fold_left
      (fun acc (s, rows) -> acc + Indexing.Answer.cardinal ~n:(Shard.len s) rows.(j))
      0 parts
  in
  let w = Cbitmap.Posting.Writer.create total in
  Array.iter
    (fun (s, rows) ->
      let shift = Shard.base s in
      match rows.(j) with
      | Indexing.Answer.Direct p -> Cbitmap.Posting.Writer.add w ~shift p
      | Indexing.Answer.Complement p ->
          Cbitmap.Posting.Writer.add_complement w ~shift ~n:(Shard.len s) p)
    parts;
  Cbitmap.Posting.Writer.finish w

(* The shards' local answers to [ranges], paired with their shards. *)
let scatter t ranges =
  match t.mode with
  | Sequential -> Array.map (fun s -> (s, Shard.run_batch s ranges)) t.shards
  | Domains ->
      Obs.Metrics.incr m_scatters;
      let latch = Latch.create (Array.length t.workers) in
      let slots =
        Array.map
          (fun w ->
            let slot = ref None in
            Obs.Metrics.add_gauge g_queue_depth 1.0;
            post w (Batch { ranges; slot; latch });
            slot)
          t.workers
      in
      Latch.wait latch;
      (* Every worker has arrived; the first failure in shard order
         is the one [Sequential] would have raised. *)
      Array.map2
        (fun w slot ->
          match !slot with
          | Some (Rows rows) -> (w.shard, rows)
          | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false (* latch counted every worker *))
        t.workers slots

let query_batch t ranges =
  if not t.live then invalid_arg "Router.query_batch: after shutdown";
  match t.sigma with
  | None -> Array.map (fun _ -> Cbitmap.Posting.empty) ranges
  | Some sigma ->
      let plan = Indexing.Batch.normalize ~sigma ranges in
      let uniq = plan.Indexing.Batch.uniq in
      let answers =
        if Array.length uniq = 0 then [||]
        else Array.init (Array.length uniq) (assemble (scatter t uniq))
      in
      Array.map
        (fun c ->
          if c = Indexing.Batch.empty_class then Cbitmap.Posting.empty
          else answers.(c))
        plan.Indexing.Batch.class_of

let query t ~lo ~hi = (query_batch t [| (lo, hi) |]).(0)

let shard_stats t = List.map Shard.stats (Array.to_list t.shards)

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter (fun w -> post w Stop) t.workers;
    Array.iter (fun w -> Domain.join w.domain) t.workers
  end
