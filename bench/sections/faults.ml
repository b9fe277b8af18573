(* Seeded fault-injection campaign (PR 3).  Every trial
   builds one index on a fresh device, injects one fault class (latent
   bit flips, a torn multi-block write during build, or transient read
   failures), runs detect-or-repair queries and classifies each answer
   against the naive reference.  Emits BENCH_PR3.json.  The gate: zero
   silent wrong answers across the whole campaign, and every
   transient-read trial answers correctly under the bounded retry. *)

open Common

type fault_kind = Flips | Torn | Transient

let kind_name = function
  | Flips -> "flips"
  | Torn -> "torn"
  | Transient -> "transient"

type tally = {
  mutable ok : int;
  mutable repaired : int;
  mutable corrupt : int;
  mutable silent_wrong : int;
  mutable io_failed : int;
  mutable repair_ios : int;
}

(* Runs [trial] once per seed and counts its outcomes and repair
   cost. *)
let tally_over seeds trial =
  let t =
    { ok = 0; repaired = 0; corrupt = 0; silent_wrong = 0; io_failed = 0;
      repair_ios = 0 }
  in
  List.iter
    (fun seed ->
      let outcome, cost = trial seed in
      t.repair_ios <- t.repair_ios + cost;
      match outcome with
      | `Ok -> t.ok <- t.ok + 1
      | `Repaired -> t.repaired <- t.repaired + 1
      | `Corrupt -> t.corrupt <- t.corrupt + 1
      | `Io_failed -> t.io_failed <- t.io_failed + 1
      | `Silent_wrong -> t.silent_wrong <- t.silent_wrong + 1)
    seeds;
  t

(* Sum of [f] over every (index, kind) tally. *)
let total f results =
  List.fold_left
    (fun acc (_, per_kind) ->
      List.fold_left (fun acc (_, t) -> acc + f t) acc per_kind)
    0 results

(* One console row per (index, kind), then [extra t]. *)
let tally_rows extra results =
  List.concat_map
    (fun (name, per_kind) ->
      List.map
        (fun (kind, t) ->
          [ name; kind_name kind; string_of_int t.ok;
            string_of_int t.repaired; string_of_int t.corrupt;
            string_of_int t.silent_wrong; string_of_int t.io_failed ]
          @ extra t)
        per_kind)
    results

(* One JSON object per index, one field per kind, then [extra t]. *)
let tally_json extra results =
  J.List
    (List.map
       (fun (name, per_kind) ->
         J.Obj
           (("name", J.String name)
           :: List.map
                (fun (kind, t) ->
                  ( kind_name kind,
                    J.Obj
                      ([
                         ("ok", J.Int t.ok);
                         ("repaired", J.Int t.repaired);
                         ("corrupt", J.Int t.corrupt);
                         ("silent_wrong", J.Int t.silent_wrong);
                         ("io_failed", J.Int t.io_failed);
                       ]
                      @ extra t) ))
                per_kind))
       results)

(* Trial outcomes, least to most severe. *)
let severity = function
  | `Ok -> 0 | `Repaired -> 1 | `Corrupt -> 2 | `Io_failed -> 3
  | `Silent_wrong -> 4

(* One trial: returns the worst classification over the query set plus
   the summed repair cost in block I/Os. *)
let fault_trial ~builder ~kind ~seed =
  let n = 2048 and sigma = 16 in
  let g = Workload.Gen.uniform ~seed ~n ~sigma in
  let data = g.Workload.Gen.data in
  let dev = device () in
  let rng = Iosim.Fault.Rng.create ((seed * 7919) + 13) in
  let built =
    match kind with
    | Torn -> (
        (* Tear one of the first multi-block writes of the build: the
           prefix lands, the tail stays zero.  A build that trips over
           its own torn write with a typed error is a detection, never
           a wrong answer. *)
        let plan = Iosim.Fault.create () in
        Iosim.Device.set_fault dev plan;
        Iosim.Fault.arm_torn_write plan
          ~nth:(1 + Iosim.Fault.Rng.int rng 6)
          ~keep_blocks:(Iosim.Fault.Rng.int rng 2);
        match builder dev ~sigma data with
        | inst ->
            Iosim.Device.clear_fault dev;
            Some inst
        | exception (Secidx_error.Corrupt _ | Invalid_argument _ | Assert_failure _) ->
            Iosim.Device.clear_fault dev;
            None)
    | Flips | Transient -> Some (builder dev ~sigma data)
  in
  match built with
  | None -> (`Corrupt, 0)
  | Some inst ->
      (match kind with
      | Flips ->
          ignore
            (Iosim.Device.inject_bit_flips dev ~seed:((seed * 31) + 7) ~count:4);
          (* Flips are latent medium corruption: drop the pool so reads
             see the damaged backing store, not clean cached copies. *)
          Iosim.Device.clear_pool dev
      | Transient ->
          Iosim.Device.clear_pool dev;
          let plan = Iosim.Fault.create () in
          Iosim.Device.set_fault dev plan;
          let blocks =
            max 1 (Iosim.Device.used_bits dev / Iosim.Device.block_bits dev)
          in
          Iosim.Fault.arm_transient_read plan
            ~block:(Iosim.Fault.Rng.int rng blocks)
            ~failures:(1 + Iosim.Fault.Rng.int rng 2)
      | Torn -> ());
      let worst = ref `Ok and cost = ref 0 in
      let note c = if severity c > severity !worst then worst := c in
      List.iter
        (fun (lo, hi) ->
          let reference = Workload.Queries.naive_answer g { Workload.Queries.lo; hi } in
          let agrees a =
            Cbitmap.Posting.equal (Indexing.Answer.to_posting ~n a) reference
          in
          match Indexing.Instance.verified_query inst ~lo ~hi with
          | exception Secidx_error.IO_error _ -> note `Io_failed
          | Indexing.Instance.Corrupt _ -> note `Corrupt
          | Indexing.Instance.Ok a ->
              note (if agrees a then `Ok else `Silent_wrong)
          | Indexing.Instance.Repaired (a, c) ->
              cost := !cost + c;
              note (if agrees a then `Repaired else `Silent_wrong))
        [ (0, sigma - 1); (4, 11); (9, 9) ];
      (!worst, !cost)

let update_fault_trial ~(u : Registry.updatable) ~kind ~seed =
  let n = 512 and sigma = 16 in
  let g = Workload.Gen.uniform ~seed ~n ~sigma in
  let data = g.Workload.Gen.data in
  let dev = device () in
  let rng = Iosim.Fault.Rng.create ((seed * 6113) + 29) in
  let started = u.Registry.u_start dev ~sigma data in
  let apply_m, answer_m, contents_m = mutated_oracle ~sigma data in
  let ops = random_ops ~rng ~sigma ~kinds:u.Registry.u_kinds ~len:n ~count:80 in
  let worst = ref `Ok in
  let note c = if severity c > severity !worst then worst := c in
  (* The wal store retries its own compactions (and degrades rather
     than fails), so it takes the transients while the ops run.  The
     other update paths mutate in place with no internal retry —
     re-running a half-applied rebuild is not idempotent — so they
     mutate cleanly and face the transients on the query path, like
     the PR 3 trials, but over a structure the ops just reshaped. *)
  let during_updates = kind = Transient && u.Registry.u_name = "wal" in
  let plan = Iosim.Fault.create () in
  if during_updates then Iosim.Device.set_fault dev plan;
  (try
     List.iteri
       (fun i op ->
         if during_updates && i mod 8 = 0 then begin
           Iosim.Device.clear_pool dev;
           let blocks =
             max 1 (Iosim.Device.used_bits dev / Iosim.Device.block_bits dev)
           in
           Iosim.Fault.arm_transient_read plan
             ~block:(Iosim.Fault.Rng.int rng blocks)
             ~failures:(1 + Iosim.Fault.Rng.int rng 2)
         end;
         started.Registry.u_apply op;
         apply_m op)
       ops
   with Secidx_error.IO_error _ -> note `Io_failed);
  if during_updates then Iosim.Device.clear_fault dev;
  if !worst = `Ok then begin
    (match kind with
    | Flips ->
        ignore
          (Iosim.Device.inject_bit_flips dev ~seed:((seed * 43) + 3) ~count:4);
        Iosim.Device.clear_pool dev
    | Transient when not during_updates ->
        Iosim.Device.clear_pool dev;
        Iosim.Device.set_fault dev plan;
        let blocks =
          max 1 (Iosim.Device.used_bits dev / Iosim.Device.block_bits dev)
        in
        Iosim.Fault.arm_transient_read plan
          ~block:(Iosim.Fault.Rng.int rng blocks)
          ~failures:(1 + Iosim.Fault.Rng.int rng 2)
    | _ -> ());
    let inst = started.Registry.u_instance () in
    let n_live = Array.length (contents_m ()) in
    List.iter
      (fun (lo, hi) ->
        let reference = answer_m ~lo ~hi in
        let agrees a =
          Cbitmap.Posting.equal
            (Indexing.Answer.to_posting ~n:n_live a)
            reference
        in
        match Indexing.Instance.verified_query inst ~lo ~hi with
        | exception Secidx_error.IO_error _ -> note `Io_failed
        | Indexing.Instance.Corrupt _ -> note `Corrupt
        | Indexing.Instance.Ok a -> note (if agrees a then `Ok else `Silent_wrong)
        | Indexing.Instance.Repaired (a, _) ->
            note (if agrees a then `Repaired else `Silent_wrong))
      [ (0, sigma - 1); (4, 11); (9, 9) ]
  end;
  !worst

let run ~smoke =
  let seeds = if smoke then [ 101; 102 ] else [ 101; 102; 103; 104; 105; 106 ] in
  let kinds = [ Flips; Torn; Transient ] in
  let results =
    List.map
      (fun (name, builder) ->
        ( name,
          List.map
            (fun kind ->
              ( kind,
                tally_over seeds (fun seed -> fault_trial ~builder ~kind ~seed)
              ))
            kinds ))
      Registry.campaign
  in
  let trials =
    List.length Registry.campaign * List.length kinds * List.length seeds
  in
  let silent_wrong = total (fun t -> t.silent_wrong) results in
  let transient_failures =
    List.fold_left
      (fun acc (_, per_kind) ->
        List.fold_left
          (fun acc (kind, t) ->
            if kind = Transient then acc + t.corrupt + t.io_failed + t.silent_wrong
            else acc)
          acc per_kind)
      0 results
  in
  table
    [ "index"; "kind"; "ok"; "repaired"; "corrupt"; "silent"; "io-fail";
      "repair-ios" ]
    (tally_rows (fun t -> [ string_of_int t.repair_ios ]) results);
  (* PR 8: the write paths, under the same classification.  Transient
     reads apply to every updatable structure (each op runs under the
     bounded retry); latent flips only to those whose extents carry
     rebuild frames (wal) — the others have no repair source, so a
     flip trial would only measure the absence of an integrity layer,
     not a write-path defect. *)
  let update_kinds u =
    if u.Registry.u_name = "wal" then [ Transient; Flips ] else [ Transient ]
  in
  let update_results =
    List.map
      (fun u ->
        ( u.Registry.u_name,
          List.map
            (fun kind ->
              ( kind,
                tally_over seeds (fun seed ->
                    (update_fault_trial ~u ~kind ~seed, 0)) ))
            (update_kinds u) ))
      Registry.updatable
  in
  fmt "\nupdate paths:\n";
  table
    [ "index"; "kind"; "ok"; "repaired"; "corrupt"; "silent"; "io-fail" ]
    (tally_rows (fun _ -> []) update_results);
  let update_trials = List.length seeds * total (fun _ -> 1) update_results in
  let update_silent_wrong = total (fun t -> t.silent_wrong) update_results in
  let update_failures =
    total (fun t -> t.io_failed + t.corrupt) update_results
  in
  let pass =
    silent_wrong = 0 && transient_failures = 0 && update_silent_wrong = 0
    && update_failures = 0
  in
  fmt "trials=%d silent_wrong=%d transient_failures=%d detected=%d repaired=%d\n"
    trials silent_wrong transient_failures
    (total (fun t -> t.corrupt) results)
    (total (fun t -> t.repaired) results);
  fmt "update trials=%d silent_wrong=%d failures=%d\n" update_trials
    update_silent_wrong update_failures;
  write_artifact ~pr:3
    ~label:"fault-injected device, detect-or-repair queries" ~smoke
    ~gate:
      ( pass,
        Printf.sprintf
          "silent_wrong=%d transient_failures=%d update_silent_wrong=%d \
           update_failures=%d"
          silent_wrong transient_failures update_silent_wrong update_failures
      )
    [
      ("trials", J.Int trials);
      ( "builders",
        tally_json (fun t -> [ ("repair_ios", J.Int t.repair_ios) ]) results );
      ("update_paths", tally_json (fun _ -> []) update_results);
      ( "gate",
        J.Obj
          [
            ("silent_wrong", J.Int silent_wrong);
            ("transient_failures", J.Int transient_failures);
            ("update_silent_wrong", J.Int update_silent_wrong);
            ("update_failures", J.Int update_failures);
            ("pass", J.Bool pass);
          ] );
    ]
