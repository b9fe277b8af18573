(* Tests for the observability layer (PR 4): tracer ring and span
   reconstruction, space ledger, theorem envelopes, the shared JSON
   writer, the seek counter, and the differential guarantee that
   tracing changes no answer and no I/O counter. *)

let qcheck = QCheck_alcotest.to_alcotest

let with_tracing ?(capacity = 4096) f =
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset_io_probe ())
    (fun () ->
      Obs.Trace.enable ~capacity ();
      Obs.Trace.clear ();
      f ())

(* ---- tracer ---- *)

let qcheck_span_balance =
  QCheck.Test.make ~count:100 ~name:"with_span trees stay balanced"
    QCheck.(list_of_size (Gen.int_range 0 5) (int_range 0 2))
    (fun script ->
      with_tracing ~capacity:8192 (fun () ->
          let calls = ref 0 in
          let rec go depth =
            if depth <= 4 then
              List.iter
                (fun k ->
                  incr calls;
                  Obs.Trace.with_span
                    (Printf.sprintf "s%d" k)
                    (fun () -> if k > 0 then go (depth + 1)))
                script
          in
          go 0;
          Obs.Trace.depth () = 0
          && Obs.Trace.unmatched () = 0
          && List.length (Obs.Trace.spans ()) = !calls
          && Obs.Trace.dropped () = 0))

let test_ring_overflow () =
  with_tracing ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Obs.Trace.instant ~attrs:[ ("i", Obs.Trace.Int i) ] "tick"
      done;
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "survivors" 8 (List.length evs);
      Alcotest.(check int) "dropped" 12 (Obs.Trace.dropped ());
      (* Oldest first, and exactly the tail of the emission order. *)
      Alcotest.(check (list int))
        "seqs"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.seq) evs))

let test_overflow_breaks_pairing () =
  with_tracing ~capacity:4 (fun () ->
      Obs.Trace.begin_span "outer";
      for _ = 1 to 6 do
        Obs.Trace.instant "tick"
      done;
      Obs.Trace.end_span "outer";
      (* The Begin scrolled out of the ring, so the End is an orphan. *)
      Alcotest.(check int) "unmatched" 1 (Obs.Trace.unmatched ());
      Alcotest.(check int) "no spans" 0 (List.length (Obs.Trace.spans ())))

let test_with_span_exception_safe () =
  with_tracing (fun () ->
      (try
         Obs.Trace.with_span "boom" (fun () -> failwith "inner")
       with Failure _ -> ());
      Alcotest.(check int) "depth restored" 0 (Obs.Trace.depth ());
      Alcotest.(check int) "balanced" 0 (Obs.Trace.unmatched ());
      match Obs.Trace.spans () with
      | [ s ] -> Alcotest.(check string) "name" "boom" s.Obs.Trace.span_name
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_disabled_is_free_and_silent () =
  Obs.Trace.disable ();
  let ran = ref false in
  let v = Obs.Trace.with_span "off" (fun () -> ran := true; 41 + 1) in
  Obs.Trace.instant "off";
  Alcotest.(check bool) "thunk ran" true !ran;
  Alcotest.(check int) "value through" 42 v;
  with_tracing (fun () ->
      Alcotest.(check int) "nothing recorded before enable" 0
        (List.length (Obs.Trace.events ())))

let test_span_io_cost () =
  with_tracing (fun () ->
      let io = ref 0 in
      Obs.Trace.set_io_probe (fun () -> !io);
      Obs.Trace.with_span "q" (fun () -> io := !io + 7);
      match Obs.Trace.spans () with
      | [ s ] -> Alcotest.(check int) "io delta" 7 s.Obs.Trace.io_cost
      | _ -> Alcotest.fail "expected 1 span")

let test_chrome_export_shape () =
  with_tracing (fun () ->
      Obs.Trace.with_span ~cat:"phase" "q" (fun () ->
          Obs.Trace.instant ~cat:"dev" "read");
      let phases =
        match Obs.Trace.to_chrome_json () with
        | Obs.Json.Obj fields -> (
            match List.assoc "traceEvents" fields with
            | Obs.Json.List evs ->
                List.map
                  (function
                    | Obs.Json.Obj f -> (
                        match List.assoc "ph" f with
                        | Obs.Json.String ph -> ph
                        | _ -> "?")
                    | _ -> "?")
                  evs
            | _ -> Alcotest.fail "traceEvents not a list")
        | _ -> Alcotest.fail "not an object"
      in
      Alcotest.(check (list string)) "phases" [ "B"; "i"; "E" ] phases)

(* ---- shared JSON writer ---- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_writer () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\n\\c");
        ("i", Obs.Json.Int (-3));
        ("f", Obs.Json.Float 2.5);
        ("whole", Obs.Json.Float 3.0);
        ("nan", Obs.Json.Float Float.nan);
        ("l", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
      ]
  in
  let pretty = Obs.Json.to_string doc in
  Alcotest.(check bool) "escaped quote" true (contains {|"a\"b\n\\c"|} pretty);
  Alcotest.(check bool) "grep-able key" true (contains {|  "i": -3|} pretty);
  Alcotest.(check bool) "float" true (contains {|"f": 2.5|} pretty);
  Alcotest.(check bool) "whole float keeps point" true
    (contains {|"whole": 3.0|} pretty);
  Alcotest.(check bool) "nan is null" true (contains {|"nan": null|} pretty);
  let mini = Obs.Json.to_string ~minify:true doc in
  Alcotest.(check bool) "minified single line" false (String.contains mini '\n')

(* ---- stats: field list drives everything ---- *)

let test_stats_fields_complete () =
  let s = Iosim.Stats.create () in
  List.iteri (fun i (_, _, set) -> set s (i + 1)) Iosim.Stats.fields;
  let json = Iosim.Stats.to_json s in
  (match json with
  | Obs.Json.Obj kvs ->
      (* One key per field plus the derived pool_hit_rate. *)
      Alcotest.(check int)
        "one key per field plus derived rate"
        (List.length Iosim.Stats.fields + 1)
        (List.length kvs);
      (match List.assoc_opt "pool_hit_rate" kvs with
      | Some (Obs.Json.Float _) -> ()
      | _ -> Alcotest.fail "pool_hit_rate missing or not a float");
      List.iteri
        (fun i (name, get, _) ->
          Alcotest.(check int) ("get " ^ name) (i + 1) (get s);
          match List.assoc name kvs with
          | Obs.Json.Int v -> Alcotest.(check int) ("json " ^ name) (i + 1) v
          | _ -> Alcotest.failf "field %s not an int" name)
        Iosim.Stats.fields
  | _ -> Alcotest.fail "to_json not an object");
  let snap = Iosim.Stats.snapshot s in
  Alcotest.(check bool) "snapshot equal" true (Iosim.Stats.equal s snap);
  Iosim.Stats.reset s;
  List.iter
    (fun (name, get, _) -> Alcotest.(check int) ("reset " ^ name) 0 (get s))
    Iosim.Stats.fields;
  let d = Iosim.Stats.diff ~before:s ~after:snap in
  Alcotest.(check bool) "diff = snapshot when before is zero" true
    (Iosim.Stats.equal d snap)

(* ---- seeks ---- *)

let test_seek_counter () =
  let dev = Iosim.Device.create ~block_bits:64 ~mem_bits:0 () in
  ignore (Iosim.Device.alloc dev 640);
  Iosim.Device.reset_stats dev;
  (* Sequential walk over blocks 0..4: only the first transfer seeks. *)
  for b = 0 to 4 do
    ignore (Iosim.Device.read_bits dev ~pos:(b * 64) ~width:32)
  done;
  Alcotest.(check int) "sequential = 1 seek" 1
    (Iosim.Device.stats dev).Iosim.Stats.seeks;
  Iosim.Device.reset_stats dev;
  (* Strided walk over blocks 0, 2, 4: every transfer seeks. *)
  List.iter
    (fun b -> ignore (Iosim.Device.read_bits dev ~pos:(b * 64) ~width:32))
    [ 0; 2; 4 ];
  Alcotest.(check int) "strided = 3 seeks" 3
    (Iosim.Device.stats dev).Iosim.Stats.seeks

let test_seek_pool_hit_keeps_position () =
  let dev = Iosim.Device.create ~block_bits:64 ~mem_bits:(8 * 64) () in
  ignore (Iosim.Device.alloc dev 640);
  Iosim.Device.reset_stats dev;
  ignore (Iosim.Device.read_bits dev ~pos:0 ~width:8);
  (* Pool hit: neither a seek nor a move of the head position. *)
  ignore (Iosim.Device.read_bits dev ~pos:8 ~width:8);
  (* Block 1 is contiguous with the last *missed* block 0. *)
  ignore (Iosim.Device.read_bits dev ~pos:64 ~width:8);
  let s = Iosim.Device.stats dev in
  Alcotest.(check int) "hits" 1 s.Iosim.Stats.pool_hits;
  Alcotest.(check int) "one seek" 1 s.Iosim.Stats.seeks

(* ---- ledger ---- *)

let test_ledger_exact_and_scoped () =
  let dev = Iosim.Device.create ~block_bits:64 ~mem_bits:0 () in
  let ledger = Obs.Ledger.create () in
  Iosim.Device.set_ledger dev ledger;
  ignore (Iosim.Device.alloc dev 10);
  Iosim.Device.with_component dev "directory" (fun () ->
      ignore (Iosim.Device.alloc ~align_block:true dev 100));
  (try
     Obs.Ledger.with_component ledger "payload" (fun () ->
         ignore (Iosim.Device.alloc dev 7);
         failwith "mid-alloc")
   with Failure _ -> ());
  ignore (Iosim.Device.alloc dev 5);
  Alcotest.(check string)
    "component restored after raise" Obs.Ledger.unattributed
    (Obs.Ledger.component ledger);
  (* The aligned alloc's padding lands in the dedicated padding
     component (PR 7); components still sum to the device's allocated
     bits, exactly. *)
  Alcotest.(check int)
    "total = used_bits"
    (Iosim.Device.used_bits dev)
    (Obs.Ledger.total ledger);
  Alcotest.(check int) "payload" 7 (Obs.Ledger.find ledger "payload");
  Alcotest.(check int)
    "directory holds exactly its extent" 100
    (Obs.Ledger.find ledger "directory");
  (* 10 bits were used before the 64-bit-aligned alloc: 54 bits pad. *)
  Alcotest.(check int)
    "padding split out" 54
    (Obs.Ledger.find ledger Obs.Ledger.padding);
  Alcotest.(check int) "unknown component" 0 (Obs.Ledger.find ledger "nope")

(* ---- envelopes ---- *)

let close what expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f ~ %.4f" what expected got)
    true
    (Float.abs (expected -. got) < 1e-9)

let test_envelope_units () =
  (* Theorem 1 with an empty answer is the lg sigma directory walk
     plus the one-I/O floor. *)
  close "thm1 t=0"
    9.0
    (Obs.Envelope.thm1_ios ~block_bits:1024 ~sigma:256 ~t_bits:0);
  close "thm1 t=2048"
    11.0
    (Obs.Envelope.thm1_ios ~block_bits:1024 ~sigma:256 ~t_bits:2048);
  Alcotest.(check bool)
    "thm2 z floor" true
    (Obs.Envelope.thm2_ios ~block_bits:1024 ~n:65536 ~z:0
    = Obs.Envelope.thm2_ios ~block_bits:1024 ~n:65536 ~z:1);
  Alcotest.(check bool)
    "thm2 monotone in z" true
    (Obs.Envelope.thm2_ios ~block_bits:1024 ~n:65536 ~z:4096
    > Obs.Envelope.thm2_ios ~block_bits:1024 ~n:65536 ~z:16);
  close "thm4" 5.0 (Obs.Envelope.thm4_append_ios ~n:65536);
  close "thm5" (256.0 /. 1024.0 +. 1.0)
    (Obs.Envelope.thm5_append_ios ~block_bits:1024 ~n:65536);
  close "space h0=0"
    (65536.0 +. (256.0 *. 256.0))
    (Obs.Envelope.space_bound_bits ~n:65536 ~sigma:256 ~h0_bits:0.0)

let test_envelope_fit_and_violations () =
  let sample = [ (10, 5.0); (3, 4.0); (0, 2.0) ] in
  close "fit is max ratio" 2.0 (Obs.Envelope.fit sample);
  let c = Obs.Envelope.fit sample in
  Alcotest.(check bool)
    "calibration sample within its own fit" true
    (Obs.Envelope.violations ~c ~slack:1.0 sample = []);
  Alcotest.(check int)
    "one over" 1
    (List.length
       (Obs.Envelope.violations ~c ~slack:1.0 [ (11, 5.0); (10, 5.0) ]));
  Alcotest.(check bool)
    "boundary is within" true
    (Obs.Envelope.within ~c:2.0 ~slack:1.5 ~measured:15 ~bound:5.0)

(* ---- differential: tracing is invisible to answers and counters ---- *)

let differential_instances () =
  let n = 512 and sigma = 16 in
  let g = Workload.Gen.uniform ~seed:91 ~n ~sigma in
  let data = g.Workload.Gen.data in
  let dev () =
    Iosim.Device.create ~block_bits:512 ~mem_bits:(16 * 512) ()
  in
  [
    Secidx.Static_index.instance (dev ()) ~sigma data;
    Secidx.Alphabet_tree.instance (dev ()) ~sigma data;
    Secidx.Dynamic_index.instance (dev ()) ~sigma data;
    Baselines.Btree.instance (dev ()) ~sigma data;
  ]

let test_tracing_differential () =
  let n = 512 in
  let ranges = [ (0, 3); (2, 9); (0, 15); (7, 7); (15, 2) ] in
  List.iter
    (fun (inst : Indexing.Instance.t) ->
      let reference =
        List.map
          (fun (lo, hi) ->
            Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |])
          ranges
      in
      with_tracing ~capacity:(1 lsl 16) (fun () ->
          Obs.Trace.set_io_probe (fun () ->
              Iosim.Stats.ios (Iosim.Device.stats inst.Indexing.Instance.device));
          List.iter2
            (fun (lo, hi) (ref_answer, ref_stats) ->
              Obs.Trace.clear ();
              let answers, stats =
                Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
              in
              let answer = answers.(0) in
              Alcotest.(check bool)
                (Printf.sprintf "%s [%d..%d] answer unchanged"
                   inst.Indexing.Instance.name lo hi)
                true
                (Cbitmap.Posting.equal
                   (Indexing.Answer.to_posting ~n answer)
                   (Indexing.Answer.to_posting ~n ref_answer.(0)));
              Alcotest.(check bool)
                (Printf.sprintf "%s [%d..%d] counters unchanged"
                   inst.Indexing.Instance.name lo hi)
                true
                (Iosim.Stats.equal stats ref_stats);
              Alcotest.(check int)
                (Printf.sprintf "%s [%d..%d] spans balanced"
                   inst.Indexing.Instance.name lo hi)
                0
                (Obs.Trace.unmatched ()))
            ranges reference))
    (differential_instances ())

let test_traced_query_has_phases () =
  match differential_instances () with
  | static :: _ ->
      with_tracing ~capacity:(1 lsl 16) (fun () ->
          ignore (Indexing.Instance.run static ~pool:`Cold [| (2, 9) |]);
          let spans = Obs.Trace.spans () in
          let has name =
            List.exists
              (fun (s : Obs.Trace.span) ->
                s.Obs.Trace.span_cat = "phase" && s.Obs.Trace.span_name = name)
              spans
          in
          Alcotest.(check bool) "query span" true
            (List.exists
               (fun (s : Obs.Trace.span) -> s.Obs.Trace.span_cat = "query")
               spans);
          Alcotest.(check bool) "rank_select" true (has "rank_select");
          Alcotest.(check bool) "directory" true (has "directory");
          Alcotest.(check bool) "payload" true (has "payload");
          Alcotest.(check bool) "device events present" true
            (List.exists
               (fun (e : Obs.Trace.event) -> e.Obs.Trace.cat = "dev")
               (Obs.Trace.events ())))
  | [] -> Alcotest.fail "no instances"

(* PR 8: the Yi tradeoff curve and its fitted-from-below checker. *)
let test_yi_lower_envelope () =
  (* more updates absorbed per I/O => weaker query lower bound *)
  let q1 = Obs.Envelope.yi_query_ios ~block_bits:1024 ~updates_per_io:2. in
  let q2 = Obs.Envelope.yi_query_ios ~block_bits:1024 ~updates_per_io:32. in
  Alcotest.(check bool) "monotone in lambda" true (q1 > q2);
  (* bigger blocks => stronger bound *)
  let q3 = Obs.Envelope.yi_query_ios ~block_bits:4096 ~updates_per_io:32. in
  Alcotest.(check bool) "monotone in B" true (q3 > q2);
  (* lambda below 2 floors at 2 *)
  let qf = Obs.Envelope.yi_query_ios ~block_bits:1024 ~updates_per_io:0.5 in
  Alcotest.(check (float 1e-9)) "floored lambda" q1 qf;
  let samples = [ (10., 5.); (6., 4.); (9., 3.) ] in
  let c = Obs.Envelope.fit_min samples in
  Alcotest.(check (float 1e-9)) "fit_min" 1.5 c;
  Alcotest.(check int) "fit covers sample" 0
    (List.length (Obs.Envelope.violations_below ~c ~slack:1.0 samples));
  Alcotest.(check int) "dip detected" 1
    (List.length
       (Obs.Envelope.violations_below ~c ~slack:1.0 ((4., 3.) :: samples)));
  Alcotest.(check int) "slack forgives" 0
    (List.length
       (Obs.Envelope.violations_below ~c ~slack:2.0 ((4., 3.) :: samples)))

(* ---- metrics registry (PR 9) ---- *)

let test_metrics_basics () =
  let c = Obs.Metrics.counter "test_basics_total" in
  let c' = Obs.Metrics.counter "test_basics_total" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c';
  (* registration is idempotent by name: both handles hit one cell *)
  Alcotest.(check int) "idempotent handle" 5 (Obs.Metrics.counter_value c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: \"test_basics_total\" already registered as another kind")
    (fun () -> ignore (Obs.Metrics.gauge "test_basics_total"));
  let g = Obs.Metrics.gauge "test_basics_gauge" in
  Obs.Metrics.set_gauge g 2.5;
  Obs.Metrics.add_gauge g (-1.0);
  Alcotest.(check (float 1e-9)) "gauge" 1.5 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram "test_basics_seconds" in
  Obs.Metrics.observe h 1e-3;
  ignore (Obs.Metrics.time h (fun () -> ()));
  let snap = Obs.Metrics.snapshot h in
  Alcotest.(check int) "histogram count" 2 (Obs.Histogram.count snap);
  Alcotest.(check bool) "registered names" true
    (List.mem "test_basics_total" (Obs.Metrics.names ()));
  (* reset zeroes values but registrations survive *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "counter reset" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check (float 1e-9)) "gauge reset" 0.0 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "histogram reset" 0
    (Obs.Histogram.count (Obs.Metrics.snapshot h));
  Alcotest.(check bool) "names survive reset" true
    (List.mem "test_basics_seconds" (Obs.Metrics.names ()))

(* The satellite hammer: N domains x M increments on one counter and
   one histogram; a scrape concurrent with the updates must read a
   monotone, never-torn prefix of the total, and the final scrape must
   equal the sum of the per-domain increments exactly. *)
let test_metrics_hammer () =
  let c = Obs.Metrics.counter "test_hammer_total" in
  let h = Obs.Metrics.histogram "test_hammer_seconds" in
  let doms = 4 and per_dom = 25_000 in
  let workers =
    List.init doms (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_dom do
              Obs.Metrics.incr c;
              Obs.Metrics.observe h 1e-3
            done))
  in
  let prev = ref 0 and torn = ref false in
  for _ = 1 to 200 do
    let v = Obs.Metrics.counter_value c in
    if v < !prev || v > doms * per_dom then torn := true;
    prev := v
  done;
  List.iter Domain.join workers;
  Alcotest.(check bool) "concurrent scrapes monotone in-range" false !torn;
  Alcotest.(check int) "counter total exact" (doms * per_dom)
    (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram total exact" (doms * per_dom)
    (Obs.Histogram.count (Obs.Metrics.snapshot h))

let test_metrics_phase () =
  Obs.Metrics.reset ();
  let r = Obs.Metrics.phase "testphase" (fun () -> 41 + 1) in
  Alcotest.(check int) "phase returns" 42 r;
  Alcotest.(check int) "phase counter" 1
    (Obs.Metrics.counter_value (Obs.Metrics.counter "phase_testphase_total"));
  let snap =
    Obs.Metrics.snapshot (Obs.Metrics.histogram "phase_testphase_seconds")
  in
  Alcotest.(check int) "phase histogram" 1 (Obs.Histogram.count snap);
  (* with tracing on, the phase still emits its span *)
  with_tracing (fun () ->
      ignore (Obs.Metrics.phase "testphase" (fun () -> ()));
      let spans = Obs.Trace.spans () in
      Alcotest.(check int) "span emitted" 1 (List.length spans);
      Alcotest.(check string) "span cat" "phase"
        (List.hd spans).Obs.Trace.span_cat)

exception Phase_boom of int

(* A phase whose body raises still counts and times it once, re-raises
   the very exception, and leaves its stripe's mutex free: the next
   observe and a scrape lock it again without blocking or failing. *)
let test_metrics_phase_raises () =
  Obs.Metrics.reset ();
  let boom = Phase_boom 7 in
  (match Obs.Metrics.phase "testraise" (fun () -> raise boom) with
  | () -> Alcotest.fail "phase swallowed the exception"
  | exception e ->
      Alcotest.(check bool) "same exception" true (e == boom));
  let h = Obs.Metrics.histogram "phase_testraise_seconds" in
  Alcotest.(check int) "counted once" 1
    (Obs.Metrics.counter_value (Obs.Metrics.counter "phase_testraise_total"));
  Alcotest.(check int) "observed once" 1
    (Obs.Histogram.count (Obs.Metrics.snapshot h));
  (* a rejected sample raises from inside the locked section *)
  (match Obs.Metrics.observe h (-1.0) with
  | () -> Alcotest.fail "negative sample accepted"
  | exception Invalid_argument _ -> ());
  Obs.Metrics.observe h 0.5;
  Alcotest.(check int) "mutex free after both raises" 2
    (Obs.Histogram.count (Obs.Metrics.snapshot h))

let test_prometheus_export () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr ~by:3 (Obs.Metrics.counter "test_prom_total");
  Obs.Metrics.observe (Obs.Metrics.histogram "test_prom_seconds") 0.5;
  let text = Obs.Metrics.to_prometheus () in
  let has s =
    let ls = String.length s and lt = String.length text in
    let rec go i = i + ls <= lt && (String.sub text i ls = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "type line" true
    (has "# TYPE test_prom_total counter");
  Alcotest.(check bool) "counter sample" true (has "test_prom_total 3");
  Alcotest.(check bool) "+Inf bucket" true
    (has "test_prom_seconds_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "sum" true (has "test_prom_seconds_sum 0.5");
  Alcotest.(check bool) "count" true (has "test_prom_seconds_count 1")

(* ---- multi-domain tracing (PR 9) ---- *)

let test_multidomain_trace () =
  with_tracing (fun () ->
      Obs.Trace.with_span ~cat:"test" "main" (fun () ->
          let ws =
            List.init 2 (fun i ->
                Domain.spawn (fun () ->
                    Obs.Trace.with_span ~cat:"test"
                      (Printf.sprintf "worker%d" i)
                      (fun () -> Obs.Trace.instant "tick")))
          in
          List.iter Domain.join ws);
      let spans = Obs.Trace.spans () in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      Alcotest.(check int) "balanced" 0 (Obs.Trace.unmatched ());
      let doms =
        List.sort_uniq compare
          (List.map (fun s -> s.Obs.Trace.span_dom) spans)
      in
      Alcotest.(check int) "three domains" 3 (List.length doms);
      (* worker spans carry their own domain, not the main one *)
      let main_dom =
        (List.find (fun s -> s.Obs.Trace.span_name = "main") spans)
          .Obs.Trace.span_dom
      in
      List.iter
        (fun s ->
          if s.Obs.Trace.span_name <> "main" then
            Alcotest.(check bool) "worker dom distinct" true
              (s.Obs.Trace.span_dom <> main_dom))
        spans;
      (* the chrome export puts each domain on its own tid track *)
      match Obs.Trace.to_chrome_json () with
      | Obs.Json.Obj kvs -> (
          match List.assoc "traceEvents" kvs with
          | Obs.Json.List evs ->
              let tids =
                List.sort_uniq compare
                  (List.filter_map
                     (function
                       | Obs.Json.Obj fields -> List.assoc_opt "tid" fields
                       | _ -> None)
                     evs)
              in
              Alcotest.(check int) "three tid tracks" 3 (List.length tids)
          | _ -> Alcotest.fail "traceEvents not a list")
      | _ -> Alcotest.fail "chrome export not an object")

(* ---- JSON parser (PR 9) ---- *)

let test_json_parser () =
  let src = "{\"a\": [1, -2.5e1, \"x\\u0041\\n\", true, null], \"b\": {\"c\": 3}}" in
  (match Obs.Json.of_string src with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (option (float 1e-9))) "path" (Some 3.0)
        (Option.bind (Obs.Json.path [ "b"; "c" ] j) Obs.Json.to_float_opt);
      (match Obs.Json.member "a" j with
      | Some (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float f; Obs.Json.String s;
                              Obs.Json.Bool true; Obs.Json.Null ]) ->
          Alcotest.(check (float 1e-9)) "float" (-25.0) f;
          Alcotest.(check string) "escapes" "xA\n" s
      | _ -> Alcotest.fail "list shape");
      (* writer -> parser round trip *)
      match Obs.Json.of_string (Obs.Json.to_string j) with
      | Ok j' -> Alcotest.(check bool) "round trip" true (j = j')
      | Error e -> Alcotest.fail e);
  (match Obs.Json.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Obs.Json.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad token accepted"

(* ---- cross-PR report + trace lint (PR 9) ---- *)

let test_report_scan () =
  let open Obs.Json in
  let good = Filename.temp_file "bench_good" ".json" in
  to_file good
    (Obj
       [
         ("pr", Int 42);
         ("label", String "synthetic");
         ("smoke", Bool true);
         ("envelope", Obj [ ("c_fit", Float 1.5); ("violations", Int 0) ]);
         ( "gate",
           Obj
             [
               ("mismatches", Int 0);
               ("speedup", Obj [ ("value", Float 3.0); ("min", Float 2.0) ]);
               ("pass", Bool true);
             ] );
       ]);
  let r = Obs.Report.scan good in
  Alcotest.(check (list string)) "clean" [] r.Obs.Report.failures;
  Alcotest.(check int) "pr" 42 r.Obs.Report.pr;
  Alcotest.(check bool) "headline extracted" true
    (List.mem_assoc "envelope.c_fit" r.Obs.Report.metrics);
  let bad = Filename.temp_file "bench_bad" ".json" in
  to_file bad
    (Obj
       [
         ("pr", Int 43);
         ("label", String "synthetic");
         ("violations", Int 2);
         ("low", Obj [ ("value", Float 1.0); ("min", Float 2.0) ]);
         ("gate", Obj [ ("pass", Bool false) ]);
       ]);
  let rb = Obs.Report.scan bad in
  Alcotest.(check int) "three failures" 3
    (List.length rb.Obs.Report.failures);
  let run = Obs.Report.run [ good; bad ] in
  Alcotest.(check bool) "run fails" false (Obs.Report.pass run);
  Alcotest.(check bool) "missing file is a failure" false
    (Obs.Report.pass (Obs.Report.run [ "no_such_bench.json" ]));
  Sys.remove good;
  Sys.remove bad

(* A gate recorded as not enforced (a single-core host's skipped
   domain-speedup gate) is neither a pass nor a failure: the report
   lists it, in the table and in the JSON. *)
let test_report_not_enforced () =
  let open Obs.Json in
  let gate ~enforced =
    Obj
      [
        ( "gate",
          Obj
            [
              ("speedup_min", Float 2.0);
              ("speedup_measured", Float 0.5);
              ("speedup_enforced", Bool enforced);
              ("pass", Bool true);
            ] );
      ]
  in
  let skipped = Filename.temp_file "bench_skipped" ".json" in
  to_file skipped (gate ~enforced:false);
  let r = Obs.Report.run [ skipped ] in
  Alcotest.(check bool) "not a failure" true (Obs.Report.pass r);
  Alcotest.(check (list string)) "listed"
    [ skipped ^ ": gate: speedup 0.5 vs min 2" ]
    (Obs.Report.not_enforced r);
  Alcotest.(check bool) "rendered" true
    (contains "not enforced: " (Obs.Report.render_table r));
  Alcotest.(check bool) "in the json" true
    (Obs.Json.member "not_enforced" (Obs.Report.to_json r) = Some (Int 1));
  let enforced = Filename.temp_file "bench_enforced" ".json" in
  to_file enforced (gate ~enforced:true);
  let r = Obs.Report.run [ enforced ] in
  Alcotest.(check bool) "enforced gate fails" false (Obs.Report.pass r);
  Alcotest.(check (list string))
    "nothing skipped" [] (Obs.Report.not_enforced r);
  Sys.remove skipped;
  Sys.remove enforced

let test_trace_lint () =
  (* a real multi-domain export lints clean *)
  let path = Filename.temp_file "trace_ok" ".json" in
  with_tracing (fun () ->
      Obs.Trace.with_span "a" (fun () ->
          let w =
            Domain.spawn (fun () -> Obs.Trace.with_span "b" (fun () -> ()))
          in
          Domain.join w);
      Obs.Trace.write_chrome path);
  let l = Obs.Report.lint_trace path in
  Alcotest.(check bool) "clean lint" true (Obs.Report.lint_pass l);
  Alcotest.(check int) "two domains" 2 l.Obs.Report.domains;
  Alcotest.(check int) "balanced" 0 l.Obs.Report.lint_unmatched;
  Sys.remove path;
  (* a hand-made unbalanced trace does not *)
  let bad = Filename.temp_file "trace_bad" ".json" in
  let oc = open_out bad in
  output_string oc
    "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"B\", \"ts\": 1, \
     \"pid\": 1, \"tid\": 7}]}";
  close_out oc;
  let lb = Obs.Report.lint_trace bad in
  Alcotest.(check bool) "unbalanced fails" false (Obs.Report.lint_pass lb);
  Alcotest.(check int) "one unmatched" 1 lb.Obs.Report.lint_unmatched;
  Sys.remove bad

(* ---- histogram percentiles ---- *)

(* Against the exact nearest-rank quantile of the recorded samples:
   the reported percentile lies in [min, max] and at most one bucket
   away.  Samples span the underflow and overflow buckets, and a
   quarter of the cases repeat one value (min = max, where an
   unclamped bucket edge lands outside the range). *)
let qcheck_percentile_clamped =
  let sample = QCheck.Gen.(map (fun e -> 10.0 ** e) (float_range (-9.0) 3.0)) in
  QCheck.Test.make ~count:300 ~name:"percentile within [min, max] and one bucket of exact"
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) float)
       QCheck.Gen.(
         pair
           (frequency
              [
                (3, list_size (int_range 1 200) sample);
                (1, map2 (fun v k -> List.init k (fun _ -> v)) sample (int_range 1 50));
              ])
           (float_range 0.0 1.0)))
    (fun (xs, q) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.add h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = sorted.(rank - 1) in
      let got = Obs.Histogram.percentile h q in
      got >= sorted.(0)
      && got <= sorted.(n - 1)
      && abs (Obs.Histogram.index h got - Obs.Histogram.index h exact) <= 1)

let suite =
  [
    Alcotest.test_case "yi lower envelope" `Quick test_yi_lower_envelope;
    Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "overflow breaks pairing" `Quick
      test_overflow_breaks_pairing;
    Alcotest.test_case "with_span exception safe" `Quick
      test_with_span_exception_safe;
    Alcotest.test_case "disabled tracer is silent" `Quick
      test_disabled_is_free_and_silent;
    Alcotest.test_case "span io cost" `Quick test_span_io_cost;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "json writer" `Quick test_json_writer;
    Alcotest.test_case "stats fields complete" `Quick
      test_stats_fields_complete;
    Alcotest.test_case "seek counter" `Quick test_seek_counter;
    Alcotest.test_case "seek vs pool hit" `Quick
      test_seek_pool_hit_keeps_position;
    Alcotest.test_case "ledger exact and scoped" `Quick
      test_ledger_exact_and_scoped;
    Alcotest.test_case "envelope units" `Quick test_envelope_units;
    Alcotest.test_case "envelope fit and violations" `Quick
      test_envelope_fit_and_violations;
    Alcotest.test_case "tracing differential" `Quick
      test_tracing_differential;
    Alcotest.test_case "traced query has phases" `Quick
      test_traced_query_has_phases;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "metrics multi-domain hammer" `Quick
      test_metrics_hammer;
    Alcotest.test_case "metrics phase" `Quick test_metrics_phase;
    Alcotest.test_case "metrics phase raises" `Quick test_metrics_phase_raises;
    Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
    Alcotest.test_case "multi-domain trace" `Quick test_multidomain_trace;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "report scan" `Quick test_report_scan;
    Alcotest.test_case "report lists gates not enforced" `Quick
      test_report_not_enforced;
    Alcotest.test_case "trace lint" `Quick test_trace_lint;
    qcheck qcheck_span_balance;
    qcheck qcheck_percentile_clamped;
  ]
