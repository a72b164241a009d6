(** Tests of the deterministic domain pool ([lib/par]) and its
    integration points: [map]/[map_init] semantics (input order,
    exception routing, worker-local state), campaign and model-search
    parallel-vs-serial bit-identity, fuzz-driver report identity, and
    the [par.*] counter table in doc/OBSERVABILITY.md. *)

module P = Par.Pool
module M = Obs_metrics
module Exp = Measure.Experiment
module Spec = Measure.Spec
module Instr = Measure.Instrument
module Fault = Measure.Fault
module Camp = Measure.Campaign

let machine = Mpi_sim.Machine.skylake_cluster

(* Jobs counts chosen to cover the degenerate pool (1), the smallest
   real one (2), and one that exceeds both the host's cores and the
   item-count/chunking sweet spot (7). *)
let jobs_axis = [ 1; 2; 7 ]

(* -- map semantics ----------------------------------------------------------- *)

let test_map_matches_list_map () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + (x mod 7) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          List.iter
            (fun chunk ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
                expected
                (P.map pool ~chunk f xs))
            [ 1; 3; 64 ];
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d default chunk" jobs)
            expected (P.map pool f xs)))
    jobs_axis

let test_map_edge_inputs () =
  P.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (P.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 42 ] (P.map pool succ [ 41 ]);
      Alcotest.(check (list int))
        "fewer items than workers" [ 1; 2 ]
        (P.map pool succ [ 0; 1 ]))

exception Boom of int

let test_exception_lowest_index_wins () =
  let xs = List.init 50 Fun.id in
  let f x = if x = 13 || x = 37 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          (match P.map pool ~chunk:1 f xs with
          | _ -> Alcotest.fail "map over raising tasks must raise"
          | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "lowest failing index at jobs=%d" jobs)
              13 i);
          (* The failed map must not wedge the pool. *)
          Alcotest.(check (list int)) "pool usable after exception"
            (List.map succ xs)
            (P.map pool succ xs)))
    jobs_axis

let test_shutdown_idempotent_then_serial () =
  let pool = P.create ~jobs:4 () in
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "before shutdown" (List.map succ xs)
    (P.map pool succ xs);
  P.shutdown pool;
  P.shutdown pool;
  Alcotest.(check (list int)) "after shutdown maps run serially"
    (List.map succ xs) (P.map pool succ xs)

let test_map_init_state_per_domain () =
  let inits = Atomic.make 0 in
  P.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let results =
        P.map_init pool ~chunk:1
          ~init:(fun () ->
            Atomic.incr inits;
            Buffer.create 16)
          (fun buf x ->
            Buffer.clear buf;
            Buffer.add_string buf (string_of_int x);
            int_of_string (Buffer.contents buf))
          xs
      in
      Alcotest.(check (list int)) "map_init results in order" xs results;
      let n = Atomic.get inits in
      Alcotest.(check bool)
        (Printf.sprintf "at most one state per domain (%d inits)" n)
        true
        (n >= 1 && n <= 4))

let test_counters () =
  let metrics = M.create () in
  P.with_pool ~metrics ~jobs:3 (fun pool ->
      ignore (P.map pool succ (List.init 30 Fun.id));
      ignore (P.map pool succ (List.init 10 Fun.id)));
  let s = M.snapshot metrics in
  Alcotest.(check (option int)) "par.pools" (Some 1)
    (M.find_counter s "par.pools");
  Alcotest.(check (option int)) "par.maps" (Some 2)
    (M.find_counter s "par.maps");
  Alcotest.(check (option int)) "par.tasks" (Some 40)
    (M.find_counter s "par.tasks");
  match M.find_counter s "par.chunks" with
  | Some c -> Alcotest.(check bool) "chunks cover both maps" true (c >= 2)
  | None -> Alcotest.fail "par.chunks not registered"

(* -- campaign bit-identity ---------------------------------------------------- *)

let tiny_app =
  let kernel name ~tiny calls per_call deps =
    Spec.kernel ~kind:Spec.Compute ~tiny
      ~calls:(fun _ -> calls)
      ~base_time:(fun ps _ -> calls *. per_call *. Spec.param ps "n")
      ~truth_deps:deps name
  in
  {
    Spec.aname = "tiny";
    kernels = [ kernel "hot" ~tiny:false 10. 1e-4 [ "n" ] ];
    model_params = [ "n" ];
  }

let design =
  { Exp.grid = [ ("n", [ 2.; 4.; 8. ]); ("p", [ 2.; 4. ]) ];
    reps = 3; mode = Instr.Full; sigma = 0.01; seed = 7 }

let transient_plan =
  { Fault.none with
    Fault.fp_seed = 11; fp_crash = 0.1; fp_hang = 0.05; fp_persistent = 0.;
    fp_transient_attempts = 2 }

let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 }

let test_campaign_parallel_identity () =
  let serial = Camp.run ~plan:transient_plan ~retry tiny_app machine design in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let par =
            Camp.run ~pool ~plan:transient_plan ~retry tiny_app machine design
          in
          Alcotest.(check bool)
            (Printf.sprintf "report bit-identical at jobs=%d" jobs)
            true
            (compare serial par = 0)))
    jobs_axis

let with_temp_journal f =
  let path = Filename.temp_file "par-campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_campaign_journal_byte_identity () =
  with_temp_journal @@ fun serial_journal ->
  with_temp_journal @@ fun par_journal ->
  ignore
    (Camp.run_journaled ~plan:transient_plan ~retry ~journal:serial_journal
       ~resume:false tiny_app machine design);
  P.with_pool ~jobs:3 (fun pool ->
      ignore
        (Camp.run_journaled ~pool ~plan:transient_plan ~retry
           ~journal:par_journal ~resume:false tiny_app machine design));
  Alcotest.(check bool) "journals byte-identical" true
    (read_file serial_journal = read_file par_journal)

let test_campaign_kill_resume_parallel () =
  with_temp_journal @@ fun journal ->
  let uninterrupted =
    Camp.run ~plan:transient_plan ~retry tiny_app machine design
  in
  P.with_pool ~jobs:4 (fun pool ->
      let partial =
        Camp.run_journaled ~pool ~plan:transient_plan ~retry ~limit:5 ~journal
          ~resume:false tiny_app machine design
      in
      Alcotest.(check bool) "partial campaign interrupted" true
        partial.Camp.cp_interrupted;
      let resumed =
        Camp.run_journaled ~pool ~plan:transient_plan ~retry ~journal
          ~resume:true tiny_app machine design
      in
      Alcotest.(check bool) "resumed not interrupted" false
        resumed.Camp.cp_interrupted;
      Alcotest.(check bool) "resumed records bit-identical to uninterrupted"
        true
        (compare resumed.Camp.cp_records uninterrupted.Camp.cp_records = 0))

(* -- model-search bit-identity ------------------------------------------------ *)

let design_runs app p_values size_values =
  Exp.run_design app machine
    { Exp.grid = [ ("p", p_values); ("size", size_values); ("r", [ 8. ]) ];
      reps = 3; mode = Instr.Full; sigma = 0.02; seed = 42 }

let fit_params = [ "p"; "size" ]

(* Every fit runs serially and on pools of every size in [jobs_axis]:
   the result and every search.* counter must be identical.  Pooled
   scoring gives each domain its own kernel scratch ([Par.Pool.map_init])
   sized for the call, so fits of differing point counts and hypothesis
   widths also guard that no scratch is shared or reused stale.  Each
   fit takes the observability fields to put into its config. *)
let search_identity name runs extra =
  let total = Exp.total_dataset runs ~params:fit_params in
  let fits =
    ( name ^ " robust fit",
      fun obs ->
        (* its rejection count is settled before any scoring *)
        fst
          (Model.Search.multi_robust
             ~config:(obs Model.Search.default_config) total) )
    :: extra
  in
  let run pool (_, fit) =
    let metrics = M.create () in
    let r =
      fit (fun c -> { c with Model.Search.metrics = Some metrics; pool })
    in
    (r, M.counters_with_prefix (M.snapshot metrics) "search.")
  in
  let serial = List.map (run None) fits in
  List.iter2
    (fun (label, _) (_, counters) ->
      Alcotest.(check bool)
        (label ^ " counts its evaluations")
        true
        (List.assoc_opt "evaluated" counters <> None))
    fits serial;
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          List.iter2
            (fun ((label, _) as fit) expected ->
              Alcotest.(check bool)
                (Printf.sprintf "%s and search.* counters identical at jobs=%d"
                   label jobs)
                true
                (compare expected (run (Some pool) fit) = 0))
            fits serial))
    jobs_axis

(* Tainted lulesh kernel modeled in [size] alone: [multi] delegates to
   [single] on all 25 points of the 5x5 grid. *)
let test_search_parallel_identity_lulesh () =
  let runs =
    design_runs Apps.Lulesh_spec.app Apps.Lulesh_spec.p_values
      Apps.Lulesh_spec.size_values
  in
  let kernel =
    Exp.kernel_dataset runs ~params:fit_params ~kernel:"calc_accel_for_nodes"
  in
  Alcotest.(check int) "kernel measured on the whole grid" 25
    (List.length kernel.Model.Dataset.points);
  let constraints =
    { Model.Search.allowed = Some [ "size" ]; multiplicative = None }
  in
  search_identity "lulesh" runs
    [ ( "lulesh kernel in size only",
        fun obs ->
          Model.Search.multi ~config:(obs Model.Search.default_config)
            ~constraints kernel ) ]

(* milc, like minicg, is modeled with the extended (negative-exponent)
   search space. *)
let test_search_parallel_identity_minicg () =
  let milc =
    Exp.total_dataset ~params:fit_params
      (design_runs Apps.Milc_spec.app Apps.Milc_spec.p_values
         Apps.Milc_spec.size_values)
  in
  search_identity "minicg"
    (design_runs Apps.Minicg_spec.app Apps.Minicg_spec.p_values
       Apps.Minicg_spec.n_values)
    [ ( "milc extended-config fit",
        fun obs ->
          Model.Search.multi ~config:(obs Model.Search.extended_config) milc ) ]

(* -- fuzz-driver report identity ---------------------------------------------- *)

(* A synthetic always-deterministic oracle that fails on a stable
   fraction of generated programs, so the parallel driver's
   first-failure selection and shrinking path is exercised, not just
   the all-pass path. *)
let synthetic_oracle =
  { Fuzz.Oracle.name = "synthetic";
    check =
      (fun p ->
        if String.length (Ir.Pp.program_to_string p) mod 3 = 0 then
          Fuzz.Oracle.Fail "printed length divisible by 3"
        else Fuzz.Oracle.Pass) }

let test_fuzz_parallel_identity () =
  let oracles =
    [ Fuzz.Oracle.printer_roundtrip; Fuzz.Oracle.tripcount; synthetic_oracle ]
  in
  let serial = Fuzz.Driver.run_campaign ~oracles ~seed:5 ~budget:30 () in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let par =
            Fuzz.Driver.run_campaign ~pool ~oracles ~seed:5 ~budget:30 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "fuzz report bit-identical at jobs=%d" jobs)
            true
            (compare serial par = 0)))
    jobs_axis

(* -- documentation drift ------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [Par.Pool.counters] is the single definition of the pool counter
   names; the table in doc/OBSERVABILITY.md must list every row
   verbatim. *)
let test_counter_doc_in_sync () =
  let path =
    List.find Sys.file_exists
      [ "../doc/OBSERVABILITY.md"; "doc/OBSERVABILITY.md" ]
  in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "doc/OBSERVABILITY.md lists %s with its meaning" name)
        true (contains doc row))
    P.counters

let tests =
  [
    Alcotest.test_case "map matches List.map at 1/2/7 jobs" `Quick
      test_map_matches_list_map;
    Alcotest.test_case "map edge inputs" `Quick test_map_edge_inputs;
    Alcotest.test_case "lowest-index exception wins; pool survives" `Quick
      test_exception_lowest_index_wins;
    Alcotest.test_case "shutdown idempotent, serial afterwards" `Quick
      test_shutdown_idempotent_then_serial;
    Alcotest.test_case "map_init: one state per domain" `Quick
      test_map_init_state_per_domain;
    Alcotest.test_case "par.* counters" `Quick test_counters;
    Alcotest.test_case "campaign parallel bit-identity" `Quick
      test_campaign_parallel_identity;
    Alcotest.test_case "campaign journal byte-identity" `Quick
      test_campaign_journal_byte_identity;
    Alcotest.test_case "campaign kill/resume under a pool" `Quick
      test_campaign_kill_resume_parallel;
    Alcotest.test_case "search bit-identity (lulesh)" `Quick
      test_search_parallel_identity_lulesh;
    Alcotest.test_case "search bit-identity (minicg)" `Quick
      test_search_parallel_identity_minicg;
    Alcotest.test_case "fuzz report bit-identity" `Quick
      test_fuzz_parallel_identity;
    Alcotest.test_case "par counter table in sync with doc" `Quick
      test_counter_doc_in_sync;
  ]
