(* Always-on metrics (PR 9): compaction throughput and backlog.  The
   gauges reflect the most recently maintained [Levels.t] — the bench
   and the serving write path run one store at a time, which is the
   scrape scope that matters. *)
let m_compactions = Obs.Metrics.counter "wal_compactions_total"
let m_degraded = Obs.Metrics.counter "wal_compactions_degraded_total"
let g_pending = Obs.Metrics.gauge "wal_pending_compaction"
let g_runs = Obs.Metrics.gauge "wal_level_runs"

type t = {
  device : Iosim.Device.t;
  sigma : int;
  fanout : int;
  retry_attempts : int;
  mutable levels : Run.t list array;  (* newest first within a level *)
  mutable compactions : int;
  mutable degraded : int;
  mutable pending : bool;
}

let create device ~sigma ~fanout ~retry_attempts =
  if fanout < 2 then invalid_arg "Levels.create: fanout";
  if retry_attempts < 1 then invalid_arg "Levels.create: retry_attempts";
  {
    device;
    sigma;
    fanout;
    retry_attempts;
    levels = Array.make 4 [];
    compactions = 0;
    degraded = 0;
    pending = false;
  }

let ensure_level t i =
  if i >= Array.length t.levels then begin
    let grown = Array.make (i + 4) [] in
    Array.blit t.levels 0 grown 0 (Array.length t.levels);
    t.levels <- grown
  end

let backoff ~attempt = 1 lsl attempt

(* Sweep every level, merging each overfull one into the next.  A
   degraded (abandoned) merge leaves its level overfull and stops the
   sweep — the next insert retries it, so the structure heals as soon
   as the fault clears.  Sweeping from 0 also re-finds levels left
   overfull by earlier degraded cascades. *)
let maintain ?layout ?(on_compact = fun () -> ()) t ~n =
  let rec go i =
    if i < Array.length t.levels then
      if List.length t.levels.(i) >= t.fanout then begin
        ensure_level t (i + 1);
        on_compact ();
        match
          Iosim.Device.with_retries ~attempts:t.retry_attempts ~backoff
            t.device (fun () ->
              Run.merge ?layout t.device ~n t.levels.(i))
        with
        | merged ->
            t.compactions <- t.compactions + 1;
            Obs.Metrics.incr m_compactions;
            t.levels.(i) <- [];
            t.levels.(i + 1) <- merged :: t.levels.(i + 1);
            go (i + 1)
        | exception Secidx_error.IO_error _ ->
            t.degraded <- t.degraded + 1;
            Obs.Metrics.incr m_degraded;
            t.pending <- true
      end
      else go (i + 1)
    else t.pending <- false
  in
  go 0;
  Obs.Metrics.set_gauge g_pending (if t.pending then 1.0 else 0.0);
  Obs.Metrics.set_gauge g_runs
    (float_of_int
       (Array.fold_left (fun acc l -> acc + List.length l) 0 t.levels))

let insert_run ?layout ?on_compact t ~n run =
  if Run.sigma run <> t.sigma then invalid_arg "Levels.insert_run: sigma";
  t.levels.(0) <- run :: t.levels.(0);
  maintain ?layout ?on_compact t ~n

let runs_newest_first t = List.concat (Array.to_list t.levels)

let level_counts t =
  let counts = Array.to_list (Array.map List.length t.levels) in
  let rec trim = function
    | 0 :: rest -> ( match trim rest with [] -> [] | r -> 0 :: r)
    | c :: rest -> c :: trim rest
    | [] -> []
  in
  trim counts

let compactions t = t.compactions
let degraded t = t.degraded
let pending t = t.pending

let size_bits t =
  List.fold_left (fun acc r -> acc + Run.size_bits r) 0 (runs_newest_first t)

let frames t = List.concat_map Run.frames (runs_newest_first t)
