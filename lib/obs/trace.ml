(* Ring-buffered span/event tracer (PR 4; multi-domain since PR 9).

   Zero-cost-when-off contract: every call site guards on [!on] (a
   single bool load) before building attrs, and [with_span] runs the
   thunk directly when tracing is off.  No allocation, no clock read,
   no probe call happens unless tracing was explicitly enabled — the
   PR1/PR2 gated hot paths stay untouched (the bench re-verifies their
   speedup gates with tracing disabled).

   Multi-domain (PR 9): each domain records into its own private ring
   (discovered via [Domain.DLS], registered once in a mutex-protected
   list), so shard workers on other domains trace without ever sharing
   mutable ring state.  The only cross-domain coordination on the
   emission path is one [Atomic.fetch_and_add] on the global sequence
   counter, which gives every event a totally-ordered seq; [events ()]
   merges the per-domain rings by that seq.  [enable]/[clear] bump an
   epoch so rings recorded before the reset are silently abandoned —
   a domain's next emission re-registers a fresh ring.  Exports are
   meant to run after worker domains have joined; a domain emitting
   concurrently with [events ()] can at worst contribute a partially
   missing tail, never a torn event (rings are written by exactly one
   domain).

   Events land in a fixed-capacity ring per domain: when full, the
   oldest events of that domain are overwritten and counted in
   [dropped].  Spans are reconstructed from Begin/End pairs after the
   fact — per domain, so worker spans never cross-pair — and a long
   query can overflow the ring without slowing down or aborting; the
   tail of the trace survives, which is the part a phase histogram
   wants anyway.

   Clock and I/O probe are pluggable.  The default clock is a
   deterministic logical clock (atomic monotone counter, 1 µs per
   event) so tests and CI produce stable traces; the bench installs
   [Unix.gettimeofday] for real wallclock and wires the probe to
   [Iosim.Stats.ios] of the device under test, which turns span
   deltas into per-phase I/O costs. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type kind = Begin | End | Instant

type event = {
  seq : int;
  ts : float;
  kind : kind;
  name : string;
  cat : string;
  io : int;  (** probe reading when the event was emitted *)
  dom : int;  (** id of the domain that emitted the event *)
  attrs : (string * attr) list;
}

type span = {
  span_name : string;
  span_cat : string;
  span_dom : int;  (** domain the span ran on *)
  t0 : float;
  t1 : float;
  io_cost : int;  (** probe delta between Begin and End *)
  nest : int;  (** 0 = outermost *)
  span_attrs : (string * attr) list;
}

let on = ref false

(* One ring per emitting domain, kept as one array per event field so
   that recording an event allocates nothing: the stores go into
   arrays allocated with the ring, and the timestamp lands unboxed in a
   float array.  An event record is built only when the ring is read
   back.  The clock reading and the caller's [attrs] are the emission
   path's only allocation, which keeps a collection from starting
   inside the span being timed as far as the tracer can.
   [emitted]/[depth] are written only by the owning domain; the
   registry list cell is published under [reg_mutex] and read by
   exporters. *)
type dring = {
  r_dom : int;
  r_epoch : int;
  seqs : int array;
  tss : Float.Array.t;
  kinds : kind array;
  names : string array;
  cats : string array;
  ios : int array;
  attrss : (string * attr) list array;
  mutable emitted : int;  (* this domain's emission count *)
  mutable depth : int;  (* this domain's open-span depth *)
}

let cap = ref 0
let epoch = Atomic.make 0
let seq_ctr = Atomic.make 0
let registry : dring list ref = ref []
let reg_mutex = Mutex.create ()
let logical = Atomic.make 0

let default_clock () =
  float_of_int (1 + Atomic.fetch_and_add logical 1) *. 1e-6

let clock = ref default_clock
let probe = ref (fun () -> 0)
let set_clock f = clock := f
let set_io_probe f = probe := f
let reset_io_probe () = probe := fun () -> 0

(* The domain-local slot caches this domain's current-epoch ring so
   the emission fast path is: one DLS read, one epoch compare. *)
let slot : dring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A domain keeps its arrays across [clear]: the next epoch's ring
   reuses them (the abandoned ring is never read again), so only the
   first emission after [enable] or a capacity change allocates. *)
let my_ring () =
  let s = Domain.DLS.get slot in
  let ep = Atomic.get epoch in
  match !s with
  | Some r when r.r_epoch = ep -> r
  | prev ->
      let c = !cap in
      let r =
        match prev with
        | Some old when Array.length old.seqs = c ->
            { old with r_epoch = ep; emitted = 0; depth = 0 }
        | _ ->
            {
              r_dom = (Domain.self () :> int);
              r_epoch = ep;
              seqs = Array.make c 0;
              tss = Float.Array.make c 0.;
              kinds = Array.make c Instant;
              names = Array.make c "";
              cats = Array.make c "";
              ios = Array.make c 0;
              attrss = Array.make c [];
              emitted = 0;
              depth = 0;
            }
      in
      Mutex.protect reg_mutex (fun () -> registry := r :: !registry);
      s := Some r;
      r

let clear () =
  Atomic.incr epoch;
  Atomic.set seq_ctr 0;
  Atomic.set logical 0;
  Mutex.protect reg_mutex (fun () -> registry := [])

let enable ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity";
  cap := capacity;
  clear ();
  on := true

let disable () = on := false
let enabled () = !on

let depth () =
  match !(Domain.DLS.get slot) with
  | Some r when r.r_epoch = Atomic.get epoch -> r.depth
  | _ -> 0

(* Current-epoch rings, registration order irrelevant to callers. *)
let rings () = Mutex.protect reg_mutex (fun () -> !registry)

let dropped () =
  List.fold_left (fun acc r -> acc + max 0 (r.emitted - !cap)) 0 (rings ())

(* A Begin reads the clock before its stores and an End after them,
   so the tracer's own work falls inside the span it delimits rather
   than between the span and the caller's code. *)
let emit kind name cat attrs =
  if !on && !cap > 0 then begin
    let r = my_ring () in
    let i = r.emitted mod Array.length r.seqs in
    if kind <> End then Float.Array.unsafe_set r.tss i (!clock ());
    Array.unsafe_set r.seqs i (Atomic.fetch_and_add seq_ctr 1);
    Array.unsafe_set r.kinds i kind;
    Array.unsafe_set r.names i name;
    Array.unsafe_set r.cats i cat;
    Array.unsafe_set r.attrss i attrs;
    Array.unsafe_set r.ios i (!probe ());
    if kind = End then Float.Array.unsafe_set r.tss i (!clock ());
    r.emitted <- r.emitted + 1
  end

let begin_span ?(cat = "span") ?(attrs = []) name =
  if !on then begin
    emit Begin name cat attrs;
    let r = my_ring () in
    r.depth <- r.depth + 1
  end

let end_span ?(cat = "span") ?(attrs = []) name =
  if !on then begin
    let r = my_ring () in
    r.depth <- r.depth - 1;
    emit End name cat attrs
  end

let instant ?(cat = "event") ?(attrs = []) name = emit Instant name cat attrs

let with_span ?cat ?attrs name f =
  if not !on then f ()
  else begin
    begin_span ?cat ?attrs name;
    Fun.protect ~finally:(fun () -> end_span ?cat name) f
  end

let ring_events r =
  let n = r.emitted and c = !cap in
  if c = 0 || n = 0 then []
  else begin
    let count = min n c in
    let first = n - count in
    List.init count (fun k ->
        let i = (first + k) mod c in
        {
          seq = r.seqs.(i);
          ts = Float.Array.get r.tss i;
          kind = r.kinds.(i);
          name = r.names.(i);
          cat = r.cats.(i);
          io = r.ios.(i);
          dom = r.r_dom;
          attrs = r.attrss.(i);
        })
  end

let events () =
  List.concat_map ring_events (rings ())
  |> List.sort (fun a b -> compare a.seq b.seq)

(* Pair Begin/End events via one stack per domain (a worker's End must
   never pop a Begin from another domain).  A Begin whose End was
   emitted but overwritten (or never emitted) stays on its stack; an
   End whose Begin scrolled out of the ring has nothing to pop.  Both
   count as unmatched rather than producing a bogus span. *)
let reconstruct () =
  let stacks : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks dom s;
        s
  in
  let out = ref [] in
  let orphan_ends = ref 0 in
  List.iter
    (fun e ->
      match e.kind with
      | Instant -> ()
      | Begin ->
          let s = stack_of e.dom in
          s := e :: !s
      | End -> (
          let s = stack_of e.dom in
          match !s with
          | b :: tl when b.name = e.name ->
              s := tl;
              out :=
                {
                  span_name = e.name;
                  span_cat = b.cat;
                  span_dom = e.dom;
                  t0 = b.ts;
                  t1 = e.ts;
                  io_cost = e.io - b.io;
                  nest = List.length tl;
                  span_attrs = b.attrs;
                }
                :: !out
          | _ -> incr orphan_ends))
    (events ());
  let leftovers =
    Hashtbl.fold (fun _ s acc -> acc + List.length !s) stacks 0
  in
  (List.rev !out, leftovers + !orphan_ends)

let spans () = fst (reconstruct ())
let unmatched () = snd (reconstruct ())

(* --- export --- *)

let attr_json = function
  | Int i -> Json.Int i
  | Float x -> Json.Float x
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

(* Chrome trace_event format: ts is in microseconds; "B"/"E" duration
   events and "i" instants, one synthetic process with the emitting
   domain id as the thread id — shard workers show up as their own
   tracks. *)
let event_json e =
  let ph, scope =
    match e.kind with
    | Begin -> ("B", [])
    | End -> ("E", [])
    | Instant -> ("i", [ ("s", Json.String "t") ])
  in
  Json.Obj
    ([
       ("name", Json.String e.name);
       ("cat", Json.String e.cat);
       ("ph", Json.String ph);
       ("ts", Json.Float (e.ts *. 1e6));
       ("pid", Json.Int 1);
       ("tid", Json.Int e.dom);
     ]
    @ scope
    @ [
        ( "args",
          Json.Obj
            (("seq", Json.Int e.seq) :: ("io", Json.Int e.io)
            :: List.map (fun (k, v) -> (k, attr_json v)) e.attrs) );
      ])

let to_chrome_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (events ())));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("dropped", Json.Int (dropped ())) ]);
    ]

let write_chrome path = Json.to_file path (to_chrome_json ())

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e -> Json.to_channel ~minify:true oc (event_json e))
        (events ()))
