(* Always-on metrics registry (PR 9).

   Dependency-free (stdlib [Atomic]/[Domain]/[Mutex] only), designed
   so instrumentation can stay compiled-in on every hot path:

   - Counters are striped: [stripes] independent [int Atomic.t] cells,
     and an increment touches only the cell indexed by the calling
     domain's id, so concurrent shard workers never contend on one
     cache line.  [counter_value] sums the stripes at scrape time —
     each stripe is itself atomic, so a scrape concurrent with
     increments reads a value between the counts before and after,
     never a torn one.

   - Gauges are a single [float Atomic.t]: [set_gauge] is a plain
     atomic store, [add_gauge] a CAS loop (gauges sit on control
     paths — queue depth, level occupancy — not per-block paths).

   - Histograms reuse {!Histogram} (the PR 6 log-linear latency
     histogram, one implementation and one quantile routine for the
     whole repo) with one mutex-protected cell per stripe; [observe]
     locks only the calling domain's stripe, and {!snapshot} merges
     the stripes.

   Metric handles are meant to be created once ([let c = counter
   "..."] at module initialization) and used directly — creation takes
   the registry mutex, operations on a handle never do.  Registration
   is idempotent by name, so two modules naming the same counter share
   cells.

   The clock behind {!time} is pluggable like the tracer's: the
   default is a deterministic atomic logical clock (1 µs per reading)
   so tests scrape stable values; the bench and the serving layer
   install wallclock.  [lib/obs] still links nothing, so layers that
   cannot see [Unix] (wal, indexing) get real latencies for free once
   any driver installs the clock. *)

(* Power of two at least the domain counts the serve layer uses, so
   [Domain.self () land mask] spreads workers across distinct cells. *)
let stripes = 16
let mask = stripes - 1
let stripe () = (Domain.self () :> int) land mask

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  h_lo : float;
  h_hi : float;
  h_per_decade : int;
  locks : Mutex.t array;
  hcells : Histogram.t array;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let register name build exist =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match exist m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as another kind"
                   name))
      | None ->
          let v, m = build () in
          Hashtbl.add registry name m;
          v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; cells = Array.init stripes (fun _ -> Atomic.make 0) } in
      (c, C c))
    (function C c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cells.(stripe ()) by)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_cell = Atomic.make 0.0 } in
      (g, G g))
    (function G g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_cell v

let add_gauge g dv =
  let rec go () =
    let v = Atomic.get g.g_cell in
    if not (Atomic.compare_and_set g.g_cell v (v +. dv)) then go ()
  in
  go ()

let gauge_value g = Atomic.get g.g_cell

let histogram ?(lo = 1e-7) ?(hi = 100.0) ?(per_decade = 25) name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_lo = lo;
          h_hi = hi;
          h_per_decade = per_decade;
          locks = Array.init stripes (fun _ -> Mutex.create ());
          hcells =
            Array.init stripes (fun _ ->
                Histogram.create ~lo ~hi ~per_decade ());
        }
      in
      (h, H h))
    (function H h -> Some h | _ -> None)

(* [observe], [time] and the untraced [in_phase] sit on per-query paths,
   so they lock, unlock and re-raise by hand instead of allocating a
   [Mutex.protect]/[Fun.protect] closure per call. *)
let observe h v =
  let i = stripe () in
  let m = h.locks.(i) in
  Mutex.lock m;
  match Histogram.add h.hcells.(i) v with
  | () -> Mutex.unlock m
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock m;
      Printexc.raise_with_backtrace e bt

(* Estimate-vs-actual error histograms (PR 10).  The sample is the
   ratio (1 + actual) / (1 + estimate): 1.0 means a perfect estimate,
   10.0 a 10x under-estimate, 0.1 a 10x over-estimate; the +1 keeps
   zero-valued counts (empty answers, empty candidate sets) finite.
   Ratio-scaled buckets so the log-linear cells resolve both tails. *)
let error_histogram name = histogram ~lo:1e-4 ~hi:1e4 ~per_decade:10 name

let observe_ratio h ~est ~actual =
  if est < 0.0 || actual < 0.0 then invalid_arg "Metrics.observe_ratio";
  observe h ((1.0 +. actual) /. (1.0 +. est))

(* Lock the stripes one at a time: each cell is internally consistent,
   and a scrape racing an observe may or may not include that sample —
   the same read-point semantics as counters. *)
let snapshot h =
  Histogram.merge
    (Array.to_list
       (Array.mapi
          (fun i cell ->
            Mutex.protect h.locks.(i) (fun () ->
                Histogram.merge [ cell ]))
          h.hcells))

(* --- clock + timers --- *)

let logical = Atomic.make 0
let default_clock () = float_of_int (1 + Atomic.fetch_and_add logical 1) *. 1e-6
let clock = ref default_clock
let set_clock f = clock := f
let reset_clock () = clock := default_clock
let now () = !clock ()

let time h f =
  let t0 = now () in
  match f () with
  | v ->
      observe h (max 0.0 (now () -. t0));
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe h (max 0.0 (now () -. t0));
      Printexc.raise_with_backtrace e bt

(* --- phase spans --- *)

(* A phase counts and times its calls in the registry, and still
   emits the trace span when tracing is on, so per-phase I/O
   attribution from span probe deltas keeps working.  Its counter and
   histogram are resolved once, when the handle is made: the index
   phases below are made at module initialisation, so a per-query
   call touches no name lookup and no registry mutex. *)
type phase = { p_name : string; p_count : counter; p_seconds : histogram }

let make_phase name =
  {
    p_name = name;
    p_count = counter (Printf.sprintf "phase_%s_total" name);
    p_seconds = histogram (Printf.sprintf "phase_%s_seconds" name);
  }

let directory = make_phase "directory"
let rank_select = make_phase "rank_select"
let payload = make_phase "payload"
let verify = make_phase "verify"
let repair = make_phase "repair"

let in_phase p f =
  incr p.p_count;
  if !Trace.on then
    Trace.with_span ~cat:"phase" p.p_name (fun () -> time p.p_seconds f)
  else time p.p_seconds f

let phase name f = in_phase (make_phase name) f

(* --- scrape --- *)

let all () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let names () = List.map fst (all ())

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | G g -> Atomic.set g.g_cell 0.0
      | H h ->
          Array.iteri
            (fun i _ ->
              Mutex.protect h.locks.(i) (fun () ->
                  h.hcells.(i) <-
                    Histogram.create ~lo:h.h_lo ~hi:h.h_hi
                      ~per_decade:h.h_per_decade ()))
            h.hcells)
    (all ());
  Atomic.set logical 0

let to_json () =
  Json.Obj
    (List.map
       (fun (name, m) ->
         match m with
         | C c -> (name, Json.Int (counter_value c))
         | G g -> (name, Json.Float (gauge_value g))
         | H h -> (name, Histogram.to_json (snapshot h)))
       (all ()))

(* Prometheus text exposition format.  Histograms export the classic
   cumulative [le] series plus [_sum]/[_count]; names pass through a
   conservative sanitizer so phase names with punctuation stay legal. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" x

let to_prometheus () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      let n = sanitize name in
      match m with
      | C c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string b (Printf.sprintf "%s %d\n" n (counter_value c))
      | G g ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string b
            (Printf.sprintf "%s %s\n" n (prom_float (gauge_value g)))
      | H h ->
          let s = snapshot h in
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
          let cum = ref 0 in
          Histogram.iter_buckets s (fun ~le ~count ->
              cum := !cum + count;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float le)
                   !cum));
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" n (prom_float (Histogram.total s)));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" n (Histogram.count s)))
    (all ());
  Buffer.contents b
