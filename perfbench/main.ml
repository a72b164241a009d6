(* The repository benchmark.  Run from the repository root:

     bash perfbench/run.sh --workload model-apps --seed 1 --seconds 20 --trace 0

   Workloads: model-apps, taint-scale, serve-mix (see BENCHMARK.json and
   perfbench/README.md).  Each run repeats the workload's fixed pass of
   work for --seconds, setting up several times spread over the run,
   checks every output against an oracle outside the code under test,
   prints each metric by name and unit, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
   the end-to-end metrics; --trace 1 alternates untraced and traced passes
   and reports the per-layer metrics, the self time per layer and the
   tracing overhead, and writes the spans to .perfbench/.  The metric
   names and units are read from BENCHMARK.json, so the file and the
   program cannot drift apart.  A failed check exits 1. *)

module H = Harness
module J = Measure.Jsonio

let declared key =
  let text =
    In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
  in
  let j =
    match J.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (J.member key j) J.to_list with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some l ->
    List.map
      (fun m ->
        match
          ( Option.bind (J.member "name" m) J.to_str,
            Option.bind (J.member "unit" m) J.to_str )
        with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
      l

let workloads =
  [ ("model-apps", Model_apps.run); ("taint-scale", Taint_scale.run);
    ("serve-mix", Serve_mix.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME model-apps|taint-scale|serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let e2e_names = declared "end_to_end" and layer_names = declared "per_layer" in
  let ctx =
    H.create ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
  in
  let e2e, layers, notes = run ctx in
  let ok_ratio =
    float_of_int (ctx.attempted - ctx.failed)
    /. float_of_int (max 1 ctx.attempted)
  in
  let e2e =
    e2e @ [ H.m "ok_ratio" "ratio" ok_ratio; H.m "heap_peak_mb" "MB" (H.heap_peak_mb ()) ]
  in
  (* Every declared metric is reported: an end-to-end metric a workload
     does not compute is a bug; a per-layer metric of a layer the
     workload never calls reads 0. *)
  let select names reported ~required =
    List.iter
      (fun (x : H.metric) ->
        match List.assoc_opt x.name names with
        | Some u when u = x.unit_ && Float.is_finite x.value -> ()
        | _ -> failwith
            (Printf.sprintf "metric %s = %g [%s] is not declared or not finite"
               x.name x.value x.unit_))
      reported;
    List.map
      (fun (name, u) ->
        match List.find_opt (fun (x : H.metric) -> x.name = name) reported with
        | Some x -> x
        | None when required -> failwith ("metric " ^ name ^ " not reported")
        | None -> H.m name u 0.)
      names
  in
  let metrics =
    if ctx.trace then select layer_names layers ~required:false
    else select e2e_names e2e ~required:true
  in
  if ctx.trace then begin
    let path =
      Filename.concat (H.scratch_dir ())
        (Printf.sprintf "trace-%s-%d.json" !workload !seed)
    in
    Obs_trace.write_file ctx.sink path;
    Printf.printf "spans: %s\n" path
  end;
  Printf.printf "workload %s, seed %d, %d s%s\n" !workload !seed !seconds
    (if ctx.trace then ", traced" else "");
  List.iter (Printf.printf "  %s\n") notes;
  if ctx.trace then begin
    let self =
      List.filter
        (fun (x : H.metric) -> String.starts_with ~prefix:"self." x.name)
        metrics
    in
    let total = List.fold_left (fun a (x : H.metric) -> a +. x.value) 0. self in
    Printf.printf "  self-time shares: %s\n"
      (String.concat ", "
         (List.map
            (fun (x : H.metric) ->
              Printf.sprintf "%s %.1f%%" x.name (100. *. x.value /. total))
            self))
  end;
  List.iter
    (fun (x : H.metric) -> Printf.printf "  %-40s %16.8g %s\n" x.name x.value x.unit_)
    metrics;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev ctx.messages);
  let result =
    J.Obj
      [
        ("correct", J.Bool (ctx.failed = 0));
        ("attempted", J.Int ctx.attempted);
        ("failed", J.Int ctx.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (x : H.metric) ->
                 (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ]))
               metrics) );
      ]
  in
  print_endline (J.to_string result);
  if ctx.failed > 0 then exit 1
