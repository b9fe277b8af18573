(* The crash-safe write path (PR 8).  Three parts:

   1. Frontier: one fixed op sequence replayed through a grid of
      (flush threshold, fanout, commit group) configs; each row
      reports amortized update I/O, updates absorbed per write I/O,
      and average cold query I/O — the (update, query) tradeoff the
      logarithmic method trades along — plus the wall-clock ns per
      update of the same replay (reported, not gated).  Every
      config's answers are checked bit-for-bit against a static index
      rebuilt from scratch over the mutated string.
   2. Yi envelope: the frontier points are checked from *below*
      against the dynamic-indexability tradeoff shape
      lg B / lg(updates-per-I/O) — a constant is fitted on the
      calibration half, and no point may dip under the fitted curve.
   3. Crash campaign: a seeded sweep that kills the store at *every*
      counted block write (torn and clean, on the WAL device and the
      index device), recovers from the surviving WAL, and gates on
      zero lost acknowledged updates and zero wrong answers, with
      double-crash-during-recovery subcases.  Emits BENCH_PR8.json. *)

open Common

let wal_queries ~sigma ~count ~seed =
  let rng = Iosim.Fault.Rng.create seed in
  List.init count (fun _ ->
      let lo = Iosim.Fault.Rng.int rng sigma in
      (lo, lo + Iosim.Fault.Rng.int rng (sigma - lo)))

let wal_frontier ~smoke =
  let n = if smoke then 512 else 2048 and sigma = 16 in
  let g = Workload.Gen.uniform ~seed:42 ~n ~sigma in
  let data = g.Workload.Gen.data in
  let n_ops = if smoke then 384 else 2048 in
  let rng = Iosim.Fault.Rng.create 77 in
  let ops =
    random_ops ~rng ~sigma ~kinds:[ `Set; `Append; `Delete ] ~len:n
      ~count:n_ops
  in
  let queries = wal_queries ~sigma ~count:30 ~seed:1234 in
  (* ground truth: the mutated string, and a static index rebuilt from
     scratch over it (deleted positions carry the sentinel character
     sigma, outside every query range) *)
  let mut =
    let apply, _, contents = mutated_oracle ~sigma data in
    List.iter apply ops;
    contents ()
  in
  let rebuilt =
    Secidx.Static_index.instance (device ()) ~sigma:(sigma + 1) mut
  in
  let references =
    List.map
      (fun (lo, hi) ->
        Indexing.Answer.to_posting ~n:rebuilt.Indexing.Instance.n
          (fst (Indexing.Instance.run rebuilt ~pool:`Cold [| (lo, hi) |])).(0))
      queries
  in
  let thresholds = if smoke then [ 16; 64 ] else [ 16; 64; 256 ] in
  let fanouts = [ 2; 4 ] in
  let groups = if smoke then [ 1; 16 ] else [ 1; 8; 32 ] in
  let block_bits = 1024 in
  let rows =
    List.concat_map
      (fun flush_threshold ->
        List.concat_map
          (fun fanout ->
            List.map
              (fun group ->
                (* The WAL device carries no pool: a pooled write is a
                   cache hit, and a log append that only reaches cache
                   is not durable.  The index device keeps the usual
                   pool — runs are rebuildable from base + WAL, so its
                   buffering is the logarithmic method's memory. *)
                let index_device = device () in
                let wal_device = device ~mem_blocks:0 () in
                let config =
                  { Wal.Store.flush_threshold; fanout;
                    payload = Wal.Store.Gap; retry_attempts = 3 }
                in
                let store =
                  Wal.Store.create ~wal_device ~index_device config ~sigma
                    ~data
                in
                let snap dev =
                  let s = Iosim.Device.stats dev in
                  (s.Iosim.Stats.block_reads, s.Iosim.Stats.block_writes)
                in
                let r0w, w0w = snap wal_device and r0i, w0i = snap index_device in
                let t0 = Unix.gettimeofday () in
                let rec chunks = function
                  | [] -> ()
                  | ops ->
                      let rec take k acc = function
                        | op :: rest when k > 0 -> take (k - 1) (op :: acc) rest
                        | rest -> (List.rev acc, rest)
                      in
                      let batch, rest = take group [] ops in
                      Wal.Store.update_batch store batch;
                      chunks rest
                in
                chunks ops;
                let update_ns =
                  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n_ops
                in
                let r1w, w1w = snap wal_device and r1i, w1i = snap index_device in
                let update_ios = r1w - r0w + (w1w - w0w) + (r1i - r0i) + (w1i - w0i) in
                let write_ios = w1w - w0w + (w1i - w0i) in
                let updates_per_io =
                  float_of_int n_ops /. float_of_int (max 1 write_ios)
                in
                let inst = Wal.Store.instance store in
                let mismatches = ref 0 in
                let q_ios =
                  List.map2
                    (fun (lo, hi) reference ->
                      let answers, stats =
                        Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
                      in
                      let answer = answers.(0) in
                      let got =
                        Indexing.Answer.to_posting ~n:inst.Indexing.Instance.n
                          answer
                      in
                      if not (Cbitmap.Posting.equal got reference) then
                        incr mismatches;
                      float_of_int stats.Iosim.Stats.block_reads)
                    queries references
                in
                let avg_query = avg q_ios in
                ( flush_threshold, fanout, group,
                  float_of_int update_ios /. float_of_int n_ops,
                  update_ns, updates_per_io, avg_query, !mismatches,
                  Wal.Store.size_bits store, Wal.Store.wal_bits store,
                  Wal.Store.flushes store, Wal.Store.compactions store,
                  Wal.Store.level_counts store ))
              groups)
          fanouts)
      thresholds
  in
  (rows, block_bits)

let wal_crash_trial ~config ~sigma ~data ~batches ~victim ~k ~torn ~double =
  let blk = 512 in
  let mk () = Iosim.Device.create ~block_bits:blk ~mem_bits:0 () in
  let index_device = mk () and wal_device = mk () in
  let store = Wal.Store.create ~wal_device ~index_device config ~sigma ~data in
  let plan = Iosim.Fault.create () in
  let dev = match victim with `Wal -> wal_device | `Index -> index_device in
  Iosim.Device.set_fault dev plan;
  Iosim.Fault.arm_crash plan ~after_writes:k ~torn;
  let issued = ref [] in
  let acked = ref 0 in
  let crash_phase = ref None in
  (try
     List.iter
       (fun batch ->
         issued := !issued @ batch;
         Wal.Store.update_batch store batch;
         acked := List.length !issued)
       batches
   with Secidx_error.Crashed _ -> crash_phase := Some (Wal.Store.phase store));
  match !crash_phase with
  | None -> `No_fire
  | Some phase ->
      Iosim.Device.clear_fault dev;
      let verdict ~wal2 =
        let recovered, replayed =
          Wal.Recovery.recover ?wal_device:wal2 config ~sigma ~data wal_device
        in
        if replayed < !acked then `Lost_acks
        else if replayed > List.length !issued then `Lost_acks
        else begin
          let issued_a = Array.of_list !issued in
          let prefix_ok = ref true in
          let prefix, _ = Wal.Recovery.scan wal_device in
          List.iteri
            (fun i op ->
              if not (Wal.Op.equal issued_a.(i) op) then prefix_ok := false)
            prefix;
          if not !prefix_ok then `Wrong
          else begin
            let apply_m, answer_m, contents_m = mutated_oracle ~sigma data in
            Array.iteri
              (fun i op -> if i < replayed then apply_m op)
              issued_a;
            let n_live = Array.length (contents_m ()) in
            let wrong = ref false in
            for lo = 0 to sigma - 1 do
              for hi = lo to sigma - 1 do
                let got =
                  Indexing.Answer.to_posting ~n:n_live
                    (Wal.Store.query recovered ~lo ~hi)
                in
                if not (Cbitmap.Posting.equal got (answer_m ~lo ~hi)) then
                  wrong := true
              done
            done;
            if !wrong then `Wrong else `Recovered
          end
        end
      in
      if double then begin
        (* kill the recovery itself, then prove the original WAL is
           still sufficient: its scan is unchanged and a clean second
           recovery passes the full check *)
        let before, _ = Wal.Recovery.scan wal_device in
        let plan2 = Iosim.Fault.create () in
        let wal2 = mk () in
        Iosim.Device.set_fault wal2 plan2;
        Iosim.Fault.arm_crash plan2 ~after_writes:1 ~torn:true;
        (try
           ignore
             (Wal.Recovery.recover ~wal_device:wal2 config ~sigma ~data
                wal_device)
         with Secidx_error.Crashed _ -> ());
        let after, _ = Wal.Recovery.scan wal_device in
        if List.length before <> List.length after then `Wrong
        else
          match verdict ~wal2:None with
          | `Recovered -> `Double_ok phase
          | `Lost_acks -> `Lost_acks
          | `Wrong -> `Wrong
      end
      else
        match verdict ~wal2:None with
        | `Recovered -> `Fired phase
        | `Lost_acks -> `Lost_acks
        | `Wrong -> `Wrong

let wal_crash_campaign ~smoke =
  let sigma = 8 in
  let config =
    { Wal.Store.flush_threshold = 8; fanout = 2; payload = Wal.Store.Gap;
      retry_attempts = 3 }
  in
  let seeds = if smoke then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let trials = ref 0 and fired = ref 0 and no_fire = ref 0 in
  let lost_acks = ref 0 and wrong = ref 0 in
  let double_trials = ref 0 and double_failures = ref 0 in
  let by_phase = Hashtbl.create 4 in
  let note_phase p =
    Hashtbl.replace by_phase p (1 + Option.value ~default:0 (Hashtbl.find_opt by_phase p))
  in
  List.iter
    (fun seed ->
      let rng = Iosim.Fault.Rng.create (seed * 1_000_003) in
      let data = Array.init 64 (fun _ -> Iosim.Fault.Rng.int rng sigma) in
      let len = ref (Array.length data) in
      let batches =
        List.init 24 (fun _ ->
            let ops =
              random_ops ~rng ~sigma ~kinds:[ `Set; `Append; `Delete ]
                ~len:!len
                ~count:(1 + Iosim.Fault.Rng.int rng 5)
            in
            List.iter
              (function Wal.Op.Append _ -> incr len | _ -> ())
              ops;
            ops)
      in
      List.iter
        (fun victim ->
          (* dry run with an idle plan sizes the sweep *)
          let total =
            let mk () = Iosim.Device.create ~block_bits:512 ~mem_bits:0 () in
            let index_device = mk () and wal_device = mk () in
            let store =
              Wal.Store.create ~wal_device ~index_device config ~sigma ~data
            in
            let plan = Iosim.Fault.create () in
            Iosim.Device.set_fault
              (match victim with `Wal -> wal_device | `Index -> index_device)
              plan;
            List.iter (Wal.Store.update_batch store) batches;
            Iosim.Fault.blocks_written_seen plan
          in
          for k = 1 to total do
            List.iter
              (fun torn ->
                let double =
                  victim = `Wal && (not torn) && k mod 8 = 0
                in
                incr trials;
                if double then incr double_trials;
                match
                  wal_crash_trial ~config ~sigma ~data ~batches ~victim ~k
                    ~torn ~double
                with
                | `No_fire -> incr no_fire
                | `Fired phase ->
                    incr fired;
                    note_phase phase
                | `Double_ok phase ->
                    incr fired;
                    note_phase phase
                | `Lost_acks ->
                    incr fired;
                    incr lost_acks;
                    if double then incr double_failures
                | `Wrong ->
                    incr fired;
                    incr wrong;
                    if double then incr double_failures)
              [ false; true ]
          done)
        [ `Wal; `Index ])
    seeds;
  let phase_count p = Option.value ~default:0 (Hashtbl.find_opt by_phase p) in
  ( !trials, !fired, !no_fire, !lost_acks, !wrong, !double_trials,
    !double_failures,
    [ ("log", phase_count "log"); ("flush", phase_count "flush");
      ("compact", phase_count "compact") ] )

let run ~smoke =
  let rows, block_bits = wal_frontier ~smoke in
  table
    [ "thr"; "fanout"; "group"; "upd-IO/op"; "upd-ns/op"; "upd/wIO";
      "query-IO"; "miss"; "size-bits"; "wal-bits"; "flush"; "compact";
      "levels" ]
    (List.map
       (fun (thr, f, grp, upd, upd_ns, upio, q, miss, size, walb, fl, co, lc) ->
         [ string_of_int thr; string_of_int f; string_of_int grp;
           Printf.sprintf "%.3f" upd; Printf.sprintf "%.0f" upd_ns;
           Printf.sprintf "%.1f" upio;
           Printf.sprintf "%.1f" q; string_of_int miss; string_of_int size;
           string_of_int walb; string_of_int fl; string_of_int co;
           String.concat "/" (List.map string_of_int lc) ])
       rows);
  let mismatches =
    List.fold_left (fun acc (_, _, _, _, _, _, _, m, _, _, _, _, _) -> acc + m)
      0 rows
  in
  (* Yi tradeoff, fitted from below on the calibration half *)
  let samples =
    List.map
      (fun (_, _, _, _, _, upio, q, _, _, _, _, _, _) ->
        (q, Obs.Envelope.yi_query_ios ~block_bits ~updates_per_io:upio))
      rows
  in
  let calibration = List.filteri (fun i _ -> i mod 2 = 0) samples in
  let c = Obs.Envelope.fit_min calibration in
  let slack = 2.0 in
  let yi_violations = Obs.Envelope.violations_below ~c ~slack samples in
  fmt "yi envelope: c=%.3f slack=%.1f violations=%d/%d\n" c slack
    (List.length yi_violations) (List.length samples);
  let ( trials, fired, no_fire, lost_acks, wrong, double_trials,
        double_failures, phases ) =
    wal_crash_campaign ~smoke
  in
  fmt
    "crash campaign: trials=%d fired=%d no_fire=%d lost_acks=%d wrong=%d\n"
    trials fired no_fire lost_acks wrong;
  fmt "  by phase: %s  double-crash: %d (failures %d)\n"
    (String.concat " "
       (List.map (fun (p, c) -> Printf.sprintf "%s=%d" p c) phases))
    double_trials double_failures;
  let phase_covered =
    List.for_all (fun (_, c) -> c > 0) phases
  in
  let pass =
    mismatches = 0 && yi_violations = [] && lost_acks = 0 && wrong = 0
    && double_failures = 0 && trials >= 200 && fired > 0 && phase_covered
  in
  write_artifact ~pr:8
    ~label:"WAL + leveled merging: frontier and crash sweep" ~smoke
    ~gate:
      ( pass,
        Printf.sprintf
          "mismatches=%d yi_violations=%d lost_acks=%d wrong=%d \
           double_failures=%d trials=%d phase_covered=%b"
          mismatches (List.length yi_violations) lost_acks wrong
          double_failures trials phase_covered )
    [
      ( "frontier",
        J.List
          (List.map
             (fun (thr, f, grp, upd, upd_ns, upio, q, miss, size, walb, fl, co, lc) ->
               J.Obj
                 [
                   ("flush_threshold", J.Int thr);
                   ("fanout", J.Int f);
                   ("group", J.Int grp);
                   ("update_ios_per_op", J.Float upd);
                   ("update_ns_per_op", J.Float upd_ns);
                   ("updates_per_write_io", J.Float upio);
                   ("avg_query_ios", J.Float q);
                   ("mismatches", J.Int miss);
                   ("size_bits", J.Int size);
                   ("wal_bits", J.Int walb);
                   ("flushes", J.Int fl);
                   ("compactions", J.Int co);
                   ("levels", J.List (List.map (fun c -> J.Int c) lc));
                 ])
             rows) );
      ( "yi_envelope",
        J.Obj
          [
            ("block_bits", J.Int block_bits);
            ("c", J.Float c);
            ("slack", J.Float slack);
            ("violations", J.Int (List.length yi_violations));
          ] );
      ( "crash",
        J.Obj
          [
            ("trials", J.Int trials);
            ("fired", J.Int fired);
            ("no_fire", J.Int no_fire);
            ("lost_acks", J.Int lost_acks);
            ("wrong_answers", J.Int wrong);
            ("double_crash_trials", J.Int double_trials);
            ("double_crash_failures", J.Int double_failures);
            ( "by_phase",
              J.Obj (List.map (fun (p, c) -> (p, J.Int c)) phases) );
          ] );
      ( "gate",
        J.Obj
          [
            ("mismatches", J.Int mismatches);
            ("yi_violations", J.Int (List.length yi_violations));
            ("lost_acks", J.Int lost_acks);
            ("wrong_answers", J.Int wrong);
            ("double_crash_failures", J.Int double_failures);
            ("min_trials", J.Int 200);
            ("pass", J.Bool pass);
          ] );
    ]
