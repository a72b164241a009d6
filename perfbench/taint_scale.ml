(* taint-scale: the tainted run alone, on inputs that grow the executed
   step count and the label unions per step — lulesh at size 4, 5 and 6,
   milc on a 6^4 lattice and minicg with 1024 rows.  The fit layer is
   unused, so a faster search must not move this workload; a faster taint
   run must.  Every input's analysis stays near a tenth of a second: a
   unit's best time over a run only repeats from run to run when units
   are short enough to fall inside the host's fast spells (see
   harness.ml). *)

module H = Harness
module SSet = Ir.Cfg.SSet

type input = { label : string; app : Apps_table.t; set : (string * int) list }

let inputs =
  let lulesh size =
    { label = Printf.sprintf "lulesh-s%d" size; app = Apps_table.lulesh;
      set = [ ("size", size) ] }
  in
  [
    lulesh 4; lulesh 5; lulesh 6;
    { label = "milc-l6"; app = Apps_table.milc;
      set = [ ("nx", 6); ("ny", 6); ("nz", 6); ("nt", 6) ] };
    { label = "minicg-n1024"; app = Apps_table.minicg; set = [ ("n", 1024) ] };
  ]

let analyze ?engine program (i : input) =
  Perf_taint.Pipeline.analyze ?engine ~world:i.app.world program
    ~args:(Apps_table.args ~set:i.set i.app)

(* Taint soundness against the spec: every parameter a kernel truly
   depends on must be in its taint dependency set. *)
let check_truth ctx (i : input) (t : Perf_taint.Pipeline.t) =
  List.iter
    (fun (k : Measure.Spec.kernel) ->
      let fname = k.Measure.Spec.kname in
      if Perf_taint.Pipeline.executed t fname
         || Perf_taint.Modeling.is_mpi_routine t fname
      then
        let deps = Perf_taint.Modeling.dep_set t fname in
        List.iter
          (fun p ->
            H.check ctx
              (Apps_table.covers i.app deps p)
              "%s/%s: truth parameter %s missing from taint deps {%s}" i.label
              fname p
              (String.concat "," (SSet.elements deps)))
          (Option.value ~default:[] (Apps_table.truth i.app fname)))
    i.app.spec.Measure.Spec.kernels

(* Share of the spec's executed kernels whose taint dependency set,
   restricted to the fit parameters, is exactly the truth. *)
let exact_kernels (i : input) (t : Perf_taint.Pipeline.t) =
  List.fold_left
    (fun (n, ok) (k : Measure.Spec.kernel) ->
      let fname = k.Measure.Spec.kname in
      if Perf_taint.Pipeline.executed t fname
         || Perf_taint.Modeling.is_mpi_routine t fname
      then
        let deps = Perf_taint.Modeling.dep_set t fname in
        let got = List.filter (Apps_table.covers i.app deps) i.app.fit_params in
        (n + 1, if Some got = Apps_table.truth i.app fname then ok + 1 else ok)
      else (n, ok))
    (0, 0) i.app.spec.Measure.Spec.kernels

let counter (t : Perf_taint.Pipeline.t) = H.counter t.snapshot
let gauge (t : Perf_taint.Pipeline.t) = H.gauge t.snapshot

let run ctx =
  let first = ref [] and traced = ref [] in
  let st, setup_s, passes =
    H.run_passes ctx ~setups:16
      ~setup:(fun () -> Apps_table.fresh_analyses (H.setup_part ctx))
      ~adopt:true ~compact:true
      (fun ~tr st i ->
        let programs = List.map fst st in
        let outs =
          List.map
            (fun (inp : input) ->
              let program = List.assoc inp.app.name programs in
              let r =
                H.op ctx ~tr ~key:inp.label ~check:(check_truth ctx inp)
                  "taint-scale.analyze" (fun () ->
                    H.span ctx tr ~layer:"core" "pipeline.analyze" (fun () ->
                        analyze program inp))
              in
              (inp, r))
            inputs
        in
        if i = 0 then first := outs;
        if Obs_trace.enabled tr then traced := outs :: !traced)
  in
  let programs = List.map fst st in
  let cache_miss =
    List.fold_left (fun acc (_, t) -> acc +. counter t "compile.cache_miss")
      0. st
  in
  (* Outside the timed phase: both execution tiers must agree on the
     dependencies of lulesh at size 5. *)
  ignore
    (H.op ctx "taint-scale.tier_identity" (fun () ->
         let i = List.find (fun i -> i.label = "lulesh-s5") inputs in
         let program = List.assoc i.app.name programs in
         let deps engine =
           let t = analyze ~engine program i in
           List.map
             (fun f -> (f, SSet.elements (Perf_taint.Modeling.dep_set t f)))
             (Perf_taint.Pipeline.function_names t)
         in
         H.check ctx
           (deps Interp.Engine.Compiled = deps Interp.Engine.Interpreted)
           "lulesh-s5: compiled and interpreted tiers disagree on deps"));
  let n_kernels, n_exact =
    List.fold_left
      (fun (n, ok) (i, r) ->
        match r with
        | Some t ->
          let n', ok' = exact_kernels i t in
          (n + n', ok + ok')
        | None -> (n, ok))
      (0, 0) !first
  in
  let notes =
    [
      H.passes_note passes;
      Printf.sprintf "spec kernels with taint deps = truth: %d of %d" n_exact
        n_kernels;
    ]
  in
  let e2e =
    H.timing_metrics ~setup_s passes
    @ [
        H.m "deps_correct_ratio" "ratio"
          (float_of_int n_exact /. float_of_int (max 1 n_kernels));
      ]
  in
  let layers =
    if not ctx.H.trace then []
    else begin
      let outs = !traced in
      let n = float_of_int (List.length outs) in
      (* per input, averaged over the traced passes *)
      let per_input label f =
        List.fold_left
          (fun acc o ->
            match List.find_opt (fun ((i : input), _) -> i.label = label) o with
            | Some (_, Some t) -> acc +. f t
            | _ -> acc)
          0. outs
        /. n
      in
      let all f =
        List.fold_left (fun acc i -> acc +. per_input i.label f) 0. inputs
      in
      let taint_block suffix sum =
        let steps = sum (fun t -> counter t "interp.steps") in
        let unions = sum (fun t -> counter t "taint.unions") in
        let dedup = sum (fun t -> counter t "taint.dedup_hits") in
        let run_s = sum (fun t -> gauge t "pipeline.phase.taint_run_s") in
        [
          H.m ("interp.steps" ^ suffix) "count" steps;
          H.m ("interp.steps_per_s" ^ suffix) "1/s" (steps /. run_s);
          H.m ("taint.unions" ^ suffix) "count" unions;
          H.m ("taint.unions_per_step" ^ suffix) "ratio" (unions /. steps);
          H.m ("taint.useful_union_ratio" ^ suffix) "ratio"
            ((unions -. dedup) /. unions);
          H.m ("taint.labels" ^ suffix) "count"
            (sum (fun t -> counter t "taint.labels"));
          H.m ("pipeline.taint_run_s" ^ suffix) "s" run_s;
        ]
      in
      [
        H.m "pipeline.static_s" "s"
          (all (fun t -> gauge t "pipeline.phase.static_s"));
        H.m "pipeline.post_s" "s" (all (fun t -> gauge t "pipeline.phase.post_s"));
        H.m "compile.cache_miss" "count" cache_miss;
      ]
      @ taint_block "" all
      @ List.concat_map
          (fun i -> taint_block ("." ^ i.label) (per_input i.label))
          inputs
      @ H.trace_metrics ctx passes
    end
  in
  (e2e, layers, notes)
