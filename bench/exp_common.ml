(** Shared infrastructure for the experiment reproductions: the analysis
    runs (memoised), selective-instrumentation sets, experiment designs,
    and table printing. *)

module SSet = Measure.Instrument.SSet

let machine = Mpi_sim.Machine.skylake_cluster

(* -- the bundled apps ---------------------------------------------------------- *)

let target name = Option.get (Apps.Target.find name)
let lulesh = target "lulesh"
let milc = target "milc"
let minicg = target "minicg"

(** The measurement facts (spec, grid, search space) of a measured app. *)
let measurement (t : Apps.Target.t) = Option.get t.measured

(* -- memoised taint analyses ---------------------------------------------- *)

let analyze (t : Apps.Target.t) =
  Perf_taint.Pipeline.analyze ~world:t.taint_world t.program ~args:t.taint_args

let lulesh_analysis = lazy (analyze lulesh)
let milc_analysis = lazy (analyze milc)

(** Taint-derived instrumentation selection: the relevant application
    functions plus the MPI routines they use. *)
let selective_set (t : Perf_taint.Pipeline.t) ~model_params =
  let funcs = Perf_taint.Pipeline.relevant_functions t ~model_params in
  let mpi =
    Ir.Cfg.SSet.elements (Perf_taint.Pipeline.mpi_routines_used t)
  in
  SSet.of_list (funcs @ mpi)

let lulesh_selective =
  lazy
    (selective_set (Lazy.force lulesh_analysis)
       ~model_params:Apps.Lulesh.all_params)

let milc_selective =
  lazy
    (selective_set (Lazy.force milc_analysis) ~model_params:Apps.Milc.all_params)

(* -- experiment designs ---------------------------------------------------- *)

(** The app's 5x5 campaign grid with 5 repetitions; ranks-per-node pinned
    to 8 so that hardware contention stays constant across the design (the
    paper notes models are hardware-independent only at such saturation
    levels). *)
let design ?(seed = 42) (t : Apps.Target.t) ~mode =
  { Measure.Experiment.grid = (measurement t).grid; reps = 5; mode;
    sigma = 0.02; seed }

(* -- machine-readable output ------------------------------------------------ *)

(** Write an experiment's headline numbers as [BENCH_<name>.json] in the
    working directory, next to the human-readable log, so CI can archive
    and diff them without scraping text.  The journal's JSON writer is
    reused — floats are printed with ["%.17g"] and survive a round trip
    bit-for-bit. *)
let emit_json ~name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let v =
    Measure.Jsonio.Obj (("experiment", Measure.Jsonio.Str name) :: fields)
  in
  let oc = open_out file in
  output_string oc (Measure.Jsonio.to_string v);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "    machine-readable: %s@." file

(* -- formatting ------------------------------------------------------------ *)

let section title =
  Fmt.pr "@.=== %s ===@." title

let note fmt = Fmt.pr ("    " ^^ fmt ^^ "@.")

let paper_vs fmt = Fmt.pr ("  paper:    " ^^ fmt ^^ "@.")
let measured fmt = Fmt.pr ("  measured: " ^^ fmt ^^ "@.")

let geomean = function
  | [] -> 0.
  | xs ->
    exp (List.fold_left (fun a x -> a +. Float.log (Float.max 1e-12 x)) 0. xs
         /. float_of_int (List.length xs))

(** Run an experiment design and return runs plus per-kernel datasets. *)
let run_and_collect app design ~params ~kernels =
  let runs = Measure.Experiment.run_design app machine design in
  let datasets =
    List.filter_map
      (fun k ->
        let d = Measure.Experiment.kernel_dataset runs ~params ~kernel:k in
        if d.Model.Dataset.points = [] then None else Some (k, d))
      kernels
  in
  (runs, datasets)
