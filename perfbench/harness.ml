(* What every workload shares: the run context with its op and failure
   accounting, the timed pass loop with its spread set-ups, and the metric
   records the report is made of.

   Timing model.  A pass is the workload's fixed work, split into units
   (an analysis, a campaign, one kernel fit, one request slot) that every
   pass runs once; a run repeats the pass for --seconds.  The hosts this
   runs on change speed in phases: on the calibration host a fixed loop
   alternates between speeds up to 2x apart, for fractions of a second to
   minutes at a time, so the median of a run's passes, or of all its op
   latencies, depends on how much of the run fell in a slow phase.  What
   repeats from run to run is each unit's best time across the passes, so
   every timing is built from per-unit best times.  Set-up time is built
   the same way, from the best time of each part of a set-up over several
   set-ups spread over the run.  An op's checks run after its timed
   region, so the benchmark's own work never counts as the op's latency. *)

type unit_time = { key : string; is_op : bool; dt : float }

type pass = {
  wall : float;  (** seconds *)
  traced : bool;
  units : unit_time list;  (** latest first *)
}

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  sink : Obs_trace.sink;  (** the spans of the traced passes *)
  mutable attempted : int;
  mutable failed : int;
  mutable op_failed : bool;
  mutable op_id : int;  (** of the running op; 0 outside ops *)
  mutable messages : string list;  (** first failures, most recent first *)
  mutable pass_units : unit_time list;  (** of the running pass *)
  mutable setup_parts : unit_time list;  (** of every set-up so far *)
}

let create ~seed ~seconds ~trace =
  { seed; seconds; trace;
    sink = (if trace then Obs_trace.create () else Obs_trace.disabled);
    attempted = 0; failed = 0; op_failed = false; op_id = 0; messages = [];
    pass_units = []; setup_parts = [] }

(** Record a failed output check against the current op. *)
let fail ctx fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.op_failed <- true;
      if List.length ctx.messages < 20 then ctx.messages <- msg :: ctx.messages)
    fmt

let check ctx cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail ctx "%s" msg) fmt

(** Run [f] inside a span of [layer] when [tr] records; the span carries
    the id of the op it serves, so the spans of one op share it. *)
let span ctx tr ~layer name f =
  if not (Obs_trace.enabled tr) then f ()
  else
    Obs_trace.with_span tr ~cat:layer ~args:[ ("op", Obs_trace.Int ctx.op_id) ]
      name f

let record ctx ~is_op key dt =
  ctx.pass_units <- { key; is_op; dt } :: ctx.pass_units

(** Run one unit of the pass that is not an op. *)
let timed ctx key f =
  let r, dt = Obs_clock.with_timer f in
  record ctx ~is_op:false key dt;
  r

(** One attempted op named [name], and a unit of the pass when given a
    [key].  Only [f] is timed, inside a span of its own; [check] then
    judges [f]'s result untimed.  An exception or any failed check in
    either makes it a failed op.  Returns [f]'s result. *)
let op ctx ?(tr = Obs_trace.disabled) ?key ?(check = ignore) name f =
  ctx.attempted <- ctx.attempted + 1;
  ctx.op_failed <- false;
  ctx.op_id <- ctx.attempted;
  let guard g x =
    match g x with
    | v -> Some v
    | exception e ->
      fail ctx "%s: exception: %s" name (Printexc.to_string e);
      None
  in
  let r, dt =
    Obs_clock.with_timer (fun () ->
        guard (fun () -> span ctx tr ~layer:"bench" name f) ())
  in
  ctx.op_id <- 0;
  Option.iter (fun k -> record ctx ~is_op:true k dt) key;
  Option.iter (fun v -> ignore (guard check v)) r;
  if ctx.op_failed then ctx.failed <- ctx.failed + 1;
  ctx.op_failed <- false;
  r

(** One timed part of a set-up.  [setup_s] is built from each part's best
    time over the run's set-ups, as [wall_s] is from the units'. *)
let setup_part ctx key f =
  let r, dt = Obs_clock.with_timer f in
  ctx.setup_parts <- { key; is_op = false; dt } :: ctx.setup_parts;
  r

(* -- statistics ------------------------------------------------------------ *)

(** Linear-interpolation quantile ([q] in 0..1); [nan] when empty. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

(* -- the timed loop -------------------------------------------------------- *)

(** Each key's best time among [units] whose key satisfies [keep]. *)
let bests ?(keep = fun _ -> true) units =
  let best = Hashtbl.create 256 in
  List.iter
    (fun u ->
      if keep u.key then
        Hashtbl.replace best u.key
          (Float.min u.dt
             (Option.value ~default:infinity (Hashtbl.find_opt best u.key))))
    units;
  Hashtbl.fold (fun _ dt acc -> dt :: acc) best []

let sum_of_bests units = List.fold_left ( +. ) 0. (bests units)

(** Each unit's best time over the traced or untraced passes, for the
    units that are ops ([ops_only]) and whose key satisfies [keep]. *)
let unit_bests ?(ops_only = false) ?(keep = fun _ -> true) passes ~traced =
  List.concat_map
    (fun p ->
      if p.traced = traced then
        List.filter (fun u -> (not ops_only) || u.is_op) p.units
      else [])
    passes
  |> bests ~keep

(** The time of one pass: the sum of its units' best times. *)
let pass_time passes ~traced =
  List.fold_left ( +. ) 0. (unit_bests passes ~traced)

(** Set up, then repeat [pass] within [ctx.seconds], setting up again at
    evenly spaced moments until [setups] set-ups are done.  Each set-up
    starts from a compacted heap, as in a fresh process, and times its
    parts with [setup_part].  With [adopt] each new state replaces the
    previous one (which goes to [dispose]); otherwise a later state is
    only timed and disposed at once.  With tracing on, passes alternate
    untraced and traced, so both kinds see the same machine phases and
    their difference is the tracing overhead.  With [compact] every pass
    also starts from a compacted heap, untimed, so the heap each pass
    grows from, and the top heap size of the run, do not depend on how
    many passes ran before.  Returns the final state,
    the set-up time (the sum of the parts' best times) and the passes in
    run order. *)
let run_passes ctx ~setups ~setup ?(dispose = ignore) ~adopt ?(compact = false)
    pass =
  let n_setups = ref 0 in
  let timed_setup () =
    Gc.compact ();
    incr n_setups;
    setup ()
  in
  let state = ref (timed_setup ()) in
  let start = Obs_clock.now_ns () in
  let rec loop i passes =
    let elapsed = Obs_clock.seconds_since start in
    (* the run ends before a pass that would end past [seconds] *)
    let typical =
      match passes with
      | [] -> 0.
      | _ -> median (List.map (fun p -> p.wall) passes)
    in
    let ending = elapsed +. typical >= ctx.seconds in
    (* catch up on the set-ups due by now, and on all of them at the end *)
    let rec due_setups () =
      let n = !n_setups in
      if n < setups
         && (ending
            || elapsed >= ctx.seconds *. float_of_int n /. float_of_int setups)
      then begin
        let st = timed_setup () in
        if adopt then begin
          dispose !state;
          state := st
        end
        else dispose st;
        due_setups ()
      end
    in
    due_setups ();
    let has traced = List.exists (fun p -> p.traced = traced) passes in
    if ending && has false && ((not ctx.trace) || has true) then passes
    else begin
      if compact then Gc.compact ();
      let tr = if ctx.trace && i mod 2 = 1 then ctx.sink else Obs_trace.disabled in
      ctx.pass_units <- [];
      let (), wall =
        Obs_clock.with_timer (fun () ->
            span ctx tr ~layer:"bench" "pass" (fun () -> pass ~tr !state i))
      in
      loop (i + 1)
        ({ wall; traced = Obs_trace.enabled tr; units = ctx.pass_units }
        :: passes)
    end
  in
  let passes = List.rev (loop 0 []) in
  (!state, sum_of_bests ctx.setup_parts, passes)

(** The report line on the passes of a run. *)
let passes_note passes =
  let walls traced =
    List.filter_map
      (fun p ->
        if p.traced = traced then Some (Printf.sprintf "%.3f" p.wall) else None)
      passes
    |> String.concat " "
  in
  Printf.sprintf "passes (s): %s%s; ops per pass: %d" (walls false)
    (match walls true with "" -> "" | t -> "; traced: " ^ t)
    (List.length (unit_bests passes ~traced:false ~ops_only:true))

(** The directory, in the working directory, for the files a run leaves:
    serve catalogs while they live, and span files. *)
let scratch_dir () =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* -- metrics --------------------------------------------------------------- *)

let counter snap name =
  float_of_int (Option.value ~default:0 (Obs_metrics.find_counter snap name))

let gauge snap name = Option.value ~default:0. (Obs_metrics.find_gauge snap name)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(** The [q]-quantile of [samples] (seconds) in milliseconds; 0 without
    samples. *)
let latency_ms name samples q =
  m name "ms" (if samples = [] then 0. else 1e3 *. quantile samples q)

(** End-to-end timings shared by every workload: the set-up, the pass
    time, and the latency quantiles over the ops of a pass. *)
let timing_metrics ~setup_s passes =
  let ops = unit_bests passes ~traced:false ~ops_only:true in
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" (pass_time passes ~traced:false);
    latency_ms "op_p50_ms" ops 0.5;
    latency_ms "op_p90_ms" ops 0.9;
  ]

(** Total time of the spans named [name], over every traced pass. *)
let span_total ctx name =
  match
    List.find_opt
      (fun (t : Obs_trace.span_total) -> t.st_name = name)
      (Obs_trace.span_totals ctx.sink)
  with
  | Some t -> t.st_total_s
  | None -> 0.

(** Self time per layer: each span's duration minus the time its direct
    children cover, summed by the span's category (its layer).  The
    benchmark records from one domain, so the events nest in one lane. *)
let self_by_layer ctx =
  let by_layer = Hashtbl.create 8 in
  let add layer dt =
    Hashtbl.replace by_layer layer
      (dt +. Option.value ~default:0. (Hashtbl.find_opt by_layer layer))
  in
  (* open spans, innermost first: layer, start, time of closed children *)
  let rec go stack = function
    | [] -> ()
    | (ev : Obs_trace.event) :: rest -> (
      match (ev.ev_ph, stack) with
      | Obs_trace.Begin, _ -> go ((ev.ev_cat, ev.ev_ts_ns, ref 0.) :: stack) rest
      | Obs_trace.End, (layer, t0, children) :: outer ->
        let dt = Int64.to_float (Int64.sub ev.ev_ts_ns t0) *. 1e-9 in
        add layer (dt -. !children);
        (match outer with (_, _, c) :: _ -> c := !c +. dt | [] -> ());
        go outer rest
      | _ -> go stack rest)
  in
  go [] (Obs_trace.events ctx.sink);
  by_layer

(** The per-layer self times, per traced pass, and the tracing overhead
    (traced minus untraced pass time). *)
let trace_metrics ctx passes =
  let n =
    float_of_int (List.length (List.filter (fun p -> p.traced) passes))
  in
  let self = self_by_layer ctx in
  let layer l =
    m ("self." ^ l ^ "_s") "s"
      (Option.value ~default:0. (Hashtbl.find_opt self l) /. n)
  in
  let spans =
    List.length
      (List.filter
         (fun (ev : Obs_trace.event) -> ev.ev_ph = Obs_trace.Begin)
         (Obs_trace.events ctx.sink))
  in
  List.map layer [ "bench"; "core"; "measure"; "model"; "serve" ]
  @ [
      m "trace.overhead_s" "s"
        (pass_time passes ~traced:true -. pass_time passes ~traced:false);
      m "trace.spans" "count" (float_of_int spans /. n);
    ]
