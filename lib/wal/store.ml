module Posting = Cbitmap.Posting
module Bitset = Cbitmap.Bitset
module St = Indexing.Stream_table

(* Always-on metrics (PR 9): write-path health the scrape exports —
   group-commit batch shape and latency, flush cadence.  The latency
   histogram uses the pluggable metrics clock (this library cannot see
   Unix), so values are logical ticks until a driver installs
   wallclock. *)
let m_appends = Obs.Metrics.counter "wal_appends_total"
let m_group_commits = Obs.Metrics.counter "wal_group_commits_total"
let m_flushes = Obs.Metrics.counter "wal_flushes_total"

let m_batch_size =
  Obs.Metrics.histogram ~lo:1.0 ~hi:1e6 ~per_decade:10 "wal_group_batch_size"

let m_commit_seconds = Obs.Metrics.histogram "wal_group_commit_seconds"

type payload = Gap | Hybrid of { chunk : int }

type config = {
  flush_threshold : int;
  fanout : int;
  payload : payload;
  retry_attempts : int;
}

let default_config =
  { flush_threshold = 64; fanout = 2; payload = Gap; retry_attempts = 3 }

type entry = Live of int | Dead

type t = {
  config : config;
  sigma : int;
  log : Log.t;
  device : Iosim.Device.t;
  levels : Levels.t;
  base : Run.t;
  overlay : (int, entry) Hashtbl.t;
  mutable n : int;
  mutable delta_ops : int;
  mutable phase : string;
  mutable flushes : int;
  answer : Bitset.t;  (* [query] scratch: positions in the answer *)
  shadow : Bitset.t;  (* [query] scratch: positions a newer run wrote *)
  arena : St.Arena.t;  (* [query] scratch: the runs' decoded extents *)
}

let layout_of ~payload ~n =
  match payload with
  | Gap -> St.Gap
  | Hybrid { chunk } -> St.Hybrid { universe = max n 1; chunk }

let layout t = layout_of ~payload:t.config.payload ~n:t.n

let create ?wal_device ?index_device config ~sigma ~data =
  if config.flush_threshold < 1 then invalid_arg "Store.create: flush_threshold";
  if config.fanout < 2 then invalid_arg "Store.create: fanout";
  if config.retry_attempts < 1 then invalid_arg "Store.create: retry_attempts";
  if sigma < 1 then invalid_arg "Store.create: sigma";
  Array.iter
    (fun c -> if c < 0 || c >= sigma then invalid_arg "Store.create: data")
    data;
  (match config.payload with
  | Hybrid { chunk } when chunk < 1 -> invalid_arg "Store.create: chunk"
  | _ -> ());
  let index_device =
    match index_device with
    | Some d -> d
    | None -> Iosim.Device.create ~block_bits:512 ~mem_bits:(8 * 512) ()
  in
  let wal_device =
    match wal_device with
    | Some d -> d
    | None ->
        let bb = Iosim.Device.block_bits index_device in
        Iosim.Device.create ~block_bits:bb ~mem_bits:(4 * bb) ()
  in
  let n = Array.length data in
  let base =
    Run.build
      ~layout:(layout_of ~payload:config.payload ~n)
      index_device ~sigma
      ~chars:(Indexing.Common.positions_by_char ~sigma data)
      ~tombstones:Posting.empty ~written:Posting.empty
  in
  {
    config;
    sigma;
    log = Log.create wal_device;
    device = index_device;
    levels =
      Levels.create index_device ~sigma ~fanout:config.fanout
        ~retry_attempts:config.retry_attempts;
    base;
    overlay = Hashtbl.create 64;
    n;
    delta_ops = 0;
    phase = "idle";
    flushes = 0;
    answer = Bitset.create ();
    shadow = Bitset.create ();
    arena = St.Arena.create ();
  }

let config t = t.config
let sigma t = t.sigma
let n t = t.n
let acked t = Log.length t.log
let wal_device t = Log.device t.log
let index_device t = t.device
let phase t = t.phase
let flushes t = t.flushes
let compactions t = Levels.compactions t.levels
let degraded t = Levels.degraded t.levels
let pending_compaction t = Levels.pending t.levels
let level_counts t = Levels.level_counts t.levels
let size_bits t = Run.size_bits t.base + Levels.size_bits t.levels
let wal_bits t = Iosim.Device.used_bits (Log.device t.log)

(* Seal the overlay into a level-0 run.  The overlay is cleared only
   once the run is durably built; a crash mid-flush loses nothing
   because every overlay op is already in the WAL. *)
let flush t =
  if t.delta_ops > 0 then begin
    t.phase <- "flush";
    let chars = Array.make t.sigma [] in
    let dead = ref [] in
    let written = ref [] in
    Hashtbl.iter
      (fun pos entry ->
        written := pos :: !written;
        match entry with
        | Live ch -> chars.(ch) <- pos :: chars.(ch)
        | Dead -> dead := pos :: !dead)
      t.overlay;
    let run =
      Run.build ~layout:(layout t) t.device ~sigma:t.sigma
        ~chars:(Array.map Posting.of_list chars)
        ~tombstones:(Posting.of_list !dead)
        ~written:(Posting.of_list !written)
    in
    Hashtbl.reset t.overlay;
    t.delta_ops <- 0;
    t.flushes <- t.flushes + 1;
    Obs.Metrics.incr m_flushes;
    Levels.insert_run ~layout:(layout t)
      ~on_compact:(fun () -> t.phase <- "compact")
      t.levels ~n:t.n run;
    t.phase <- "idle"
  end

let apply_one t op =
  (match op with
  | Op.Set { pos; ch } -> Hashtbl.replace t.overlay pos (Live ch)
  | Op.Append { ch } ->
      Hashtbl.replace t.overlay t.n (Live ch);
      t.n <- t.n + 1
  | Op.Delete { pos } -> Hashtbl.replace t.overlay pos Dead);
  t.delta_ops <- t.delta_ops + 1;
  if t.delta_ops >= t.config.flush_threshold then flush t

(* Validation happens entirely before logging: a record that reaches
   the WAL is always applicable on replay. *)
let validate t ops =
  let n = ref t.n in
  List.iter
    (fun op ->
      (match op with
      | Op.Set { pos; ch } ->
          if pos < 0 || pos >= !n then invalid_arg "Store.update: position";
          if ch < 0 || ch >= t.sigma then invalid_arg "Store.update: char"
      | Op.Append { ch } ->
          if ch < 0 || ch >= t.sigma then invalid_arg "Store.update: char"
      | Op.Delete { pos } ->
          if pos < 0 || pos >= !n then invalid_arg "Store.update: position");
      match op with Op.Append _ -> incr n | _ -> ())
    ops

let update_batch t ops =
  if ops <> [] then begin
    validate t ops;
    t.phase <- "log";
    Obs.Metrics.incr m_group_commits;
    Obs.Metrics.incr ~by:(List.length ops) m_appends;
    Obs.Metrics.observe m_batch_size (float_of_int (List.length ops));
    Obs.Metrics.time m_commit_seconds (fun () -> Log.append t.log ops);
    (* The batch is acknowledged from here on. *)
    List.iter (apply_one t) ops;
    t.phase <- "idle"
  end

let update t op = update_batch t [op]

(* Decode extent [e] of a run into the arena; returns its slice.  A
   position past the string's length can only come from corruption. *)
let read_checked t e =
  let ((off, len) as slice) = St.Arena.read t.arena e in
  if len > 0 && (St.Arena.buffer t.arena).(off + len - 1) >= t.n then
    Secidx_error.corrupt "Wal.Store: run position %d past length %d"
      (St.Arena.buffer t.arena).(off + len - 1) t.n;
  slice

(* The run's matches for [lo..hi] that no newer run shadows join the
   answer: every directory entry first, then every extent. *)
let add_visible t run ~lo ~hi =
  let es =
    Obs.Metrics.(in_phase directory) (fun () -> St.extents (Run.table run) ~lo ~hi)
  in
  Obs.Metrics.(in_phase payload) (fun () ->
      let slices = List.map (read_checked t) es in
      let words = St.Arena.buffer t.arena in
      List.iter
        (fun (off, len) ->
          for i = off to off + len - 1 do
            let p = Array.unsafe_get words i in
            if not (Bitset.mem t.shadow p) then Bitset.add t.answer p
          done)
        slices)

(* The run's written set joins the shadow, read as [Run.written] reads
   it. *)
let add_shadow t run =
  let e =
    Obs.Metrics.(in_phase directory) (fun () ->
        St.extent (Run.table run) (t.sigma + 1))
  in
  Obs.Metrics.(in_phase payload) (fun () ->
      let off, len = read_checked t e in
      let words = St.Arena.buffer t.arena in
      for i = off to off + len - 1 do
        Bitset.add t.shadow (Array.unsafe_get words i)
      done)

(* Newest-first shadowed union: delta, then runs, then base, all
   through the store's arena.  The bitmaps are zeroed first, so a
   query that a read fault aborted leaves nothing behind.  The base
   never shadows anything below it, so its (empty) written stream is
   never read. *)
let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Posting.empty
  | Some (lo, hi) ->
      Bitset.clear t.answer ~n:t.n;
      Bitset.clear t.shadow ~n:t.n;
      St.Arena.clear t.arena;
      Hashtbl.iter
        (fun pos entry ->
          Bitset.add t.shadow pos;
          match entry with
          | Live ch when ch >= lo && ch <= hi -> Bitset.add t.answer pos
          | _ -> ())
        t.overlay;
      List.iter
        (fun run ->
          add_visible t run ~lo ~hi;
          add_shadow t run)
        (Levels.runs_newest_first t.levels);
      add_visible t t.base ~lo ~hi;
      Indexing.Answer.Direct (Bitset.to_posting t.answer)

let char_at t pos =
  if pos < 0 || pos >= t.n then invalid_arg "Store.char_at";
  match Hashtbl.find_opt t.overlay pos with
  | Some (Live ch) -> ch
  | Some Dead -> t.sigma
  | None ->
      let rec scan = function
        | run :: rest ->
            if Posting.mem (Run.written run) pos then
              if Posting.mem (Run.tombstones run) pos then t.sigma
              else begin
                let found = ref (-1) in
                for ch = 0 to t.sigma - 1 do
                  if !found < 0 && Posting.mem (Run.posting run ch) pos then
                    found := ch
                done;
                !found
              end
            else scan rest
        | [] ->
            let found = ref t.sigma in
            for ch = 0 to t.sigma - 1 do
              if !found = t.sigma && Posting.mem (Run.posting t.base ch) pos
              then found := ch
            done;
            !found
      in
      scan (Levels.runs_newest_first t.levels)

let frames t = Run.frames t.base @ Levels.frames t.levels

let instance t =
  {
    Indexing.Instance.name = "wal";
    device = t.device;
    n = t.n;
    sigma = t.sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity = Some (Indexing.Integrity.of_frames (fun () -> frames t));
  }
