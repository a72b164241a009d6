(* serve-mix: one closed-loop client (batch size 1) sending a seeded
   stream of protocol lines to an in-process daemon over the three apps.
   Per pass of 106 lines: 75 predicts on a prefilled hot set of 24 keys,
   larger than the 16-entry LRU (so reads are LRU hits and disk decodes);
   21 fits, 7 per app, with fresh seeds and a fault plan (fault-injected
   campaign, robust fit, index append); 5 invalidates of a hot key, each
   followed by a refit (index rewrite).  This is the only workload for the
   catalog, and it uses the campaign and fit layers differently from
   model-apps: one robust total fit per campaign, with retries. *)

module H = Harness
module J = Measure.Jsonio

let capacity = 16
let hot_per_app = 8
let predicts_per_pass = 75
let fits_per_app = 7
let invalidates_per_pass = 5

(* fresh fits whose models are judged against the truth: 20 passes' worth *)
let quality_fits = 420

type spec = { app : Apps_table.t; seed : int; faults : string }

let grid_json (app : Apps_table.t) =
  J.Obj
    (List.map (fun (k, vs) -> (k, J.List (List.map (fun v -> J.Float v) vs)))
       app.grid)

let spec_fields s =
  [ ("app", J.Str s.app.name); ("grid", grid_json s.app); ("reps", J.Int 5);
    ("seed", J.Int s.seed); ("faults", J.Str s.faults) ]

let fit_line s = J.to_string (J.Obj (("op", J.Str "fit") :: spec_fields s))

let predict_line s coords =
  J.to_string
    (J.Obj
       ((("op", J.Str "predict") :: spec_fields s)
       @ [ ("coords", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) coords)) ]))

let invalidate_line key =
  J.to_string (J.Obj [ ("op", J.Str "invalidate"); ("key", J.Str key) ])

(* Grid indices of the four points at which the hot keys are queried. *)
let grid_picks = [ (0, 4); (1, 2); (3, 1); (4, 3) ]

let coords (app : Apps_table.t) =
  let axis name = List.assoc name app.grid in
  match app.fit_params with
  | [ a; b ] ->
    List.map
      (fun (i, j) ->
        [ (a, List.nth (axis a) i); (b, List.nth (axis b) j) ])
      grid_picks
  | _ -> invalid_arg "serve-mix: two fit parameters expected"

(* Seeds: hot keys and fresh fits draw from disjoint ranges of the
   workload seed, so a fresh fit can never hit the catalog. *)
let hot_specs seed =
  List.init (3 * hot_per_app) (fun k ->
      { app = List.nth Apps_table.all (k mod 3); seed = (seed * 10_000) + k;
        faults = "" })

let fresh_spec seed n app =
  let s = (seed * 10_000) + 1_000 + n in
  { app; seed = s;
    faults =
      Printf.sprintf
        "crash=0.04,hang=0.01,straggler=0.04,corrupt=0.02,persistent=0.1,seed=%d"
        s }

let field name resp =
  match J.parse resp with
  | Ok j -> J.member name j
  | Error _ -> None

let is_ok resp = field "ok" resp = Some (J.Bool true)
let is_cached resp = field "cached" resp = Some (J.Bool true)

(* A hit is the cold answer with [cached] flipped; the flag is the only
   field that may differ. *)
let uncached resp =
  let needle = {|"cached":true|} in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length resp then resp
    else if String.sub resp i n = needle then
      String.sub resp 0 i ^ {|"cached":false|}
      ^ String.sub resp (i + n) (String.length resp - i - n)
    else find (i + 1)
  in
  find 0

type hot = {
  h_spec : spec;
  h_key : string;
  h_fit : string;  (** the cold fit response *)
  h_predicts : ((string * float) list * string) list;
      (** coordinates and the answer from the freshly fitted entry *)
}

type state = {
  dir : string;
  catalog : Serve.Catalog.t;
  server : Serve.Server.t;
  hot : hot array;
}

let ask st line = fst (Serve.Server.handle_line st.server line)

let counter = ref 0

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let dispose st =
  Serve.Catalog.close st.catalog;
  remove_dir st.dir

(* Set-up: start a daemon on an empty catalog and prefill the hot set
   through protocol lines, timing each share of the work as a part. *)
let setup ctx =
  let part key f = H.setup_part ctx key f in
  incr counter;
  let dir =
    Filename.concat (H.scratch_dir ())
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter)
  in
  Sys.mkdir dir 0o755;
  let st =
    part "open" (fun () ->
        let metrics = Obs_metrics.create () in
        let catalog =
          match Serve.Catalog.open_ ~metrics ~capacity ~dir () with
          | Ok c -> c
          | Error e -> failwith e
        in
        let server = Serve.Server.create ~metrics ~catalog () in
        { dir; catalog; server; hot = [||] })
  in
  let prefill k spec =
    part (Printf.sprintf "prefill/%d" k) (fun () ->
        let fit = ask st (fit_line spec) in
        if not (is_ok fit && not (is_cached fit)) then
          failwith ("serve-mix prefill: " ^ fit);
        let key =
          match Option.bind (field "key" fit) J.to_str with
          | Some k -> k
          | None -> failwith ("serve-mix prefill: no key in " ^ fit)
        in
        let predicts =
          List.map (fun c -> (c, ask st (predict_line spec c))) (coords spec.app)
        in
        { h_spec = spec; h_key = key; h_fit = fit; h_predicts = predicts })
  in
  { st with hot = Array.of_list (List.mapi prefill (hot_specs ctx.H.seed)) }

type fresh = {
  fr_hypotheses : int;
  fr_attempts : int;
  fr_retries : int;
  fr_abandoned : int;
  fr_error : float;
  fr_correct : bool;  (** model parameters = the total's truth *)
  fr_traced : bool;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

type slot =
  | S_predict of (int * int)  (** hot key, coordinates *)
  | S_fit of Apps_table.t  (** a fresh fit of this app *)
  | S_invalidate of int  (** hot key *)

(* One pass's requests, drawn and shuffled once per run: every pass sends
   the same predicts and invalidates in the same order, so each slot is a
   unit of the pass; only the fresh fits' seeds change from pass to pass,
   as they must to miss.  A unit's key starts with the kind of its
   request: every predict is a hit (checked), every fit and refit a
   miss. *)
let slots seed =
  let rng = Random.State.make [| seed |] in
  let hot () = Random.State.int rng (3 * hot_per_app) in
  let a =
    Array.concat
      [ Array.init predicts_per_pass (fun _ ->
            let h = hot () in
            S_predict (h, Random.State.int rng (List.length grid_picks)));
        Array.of_list
          (List.concat_map
             (fun app -> List.init fits_per_app (fun _ -> S_fit app))
             Apps_table.all);
        Array.init invalidates_per_pass (fun _ -> S_invalidate (hot ())) ]
  in
  shuffle rng a;
  a

let run ctx =
  let fresh = ref [] and n_fresh = ref 0 in
  (* catalog keys of the running pass's fresh fits *)
  let fresh_keys = ref [] in
  (* Only the daemon's answer is timed; [check] judges it afterwards. *)
  let request ~tr ~key st line check =
    ignore
      (H.op ctx ~tr ~key "serve-mix.request"
         ~check:(fun resp ->
           H.check ctx (is_ok resp) "not ok: %s -> %s" line resp;
           check resp)
         (fun () ->
           H.span ctx tr ~layer:"serve" "server.handle_line" (fun () ->
               ask st line)))
  in
  let predict ~tr ~slot st (hot, coords) =
    let h = st.hot.(hot) in
    let c, expect = List.nth h.h_predicts coords in
    request ~tr ~key:("hit/" ^ slot) st (predict_line h.h_spec c) (fun resp ->
        H.check ctx (is_cached resp) "hot predict missed: %s" resp;
        H.check ctx
          (uncached resp = uncached expect)
          "hit differs from the cold answer: %s vs %s" resp expect)
  in
  let fit ~tr ~slot st app =
    let spec = fresh_spec ctx.H.seed !n_fresh app in
    incr n_fresh;
    request ~tr ~key:("miss/" ^ slot) st (fit_line spec) (fun resp ->
        H.check ctx (not (is_cached resp)) "fresh fit was cached: %s" resp;
        Option.iter
          (fun k -> fresh_keys := k :: !fresh_keys)
          (Option.bind (field "key" resp) J.to_str);
        let entry =
          Option.bind (field "entry" resp) (fun e ->
              Result.to_option (Serve.Catalog.entry_of_line (J.to_string e)))
        in
        match entry with
        | None -> H.fail ctx "fit response without an entry: %s" resp
        | Some e ->
          H.check ctx (Float.is_finite e.e_error) "fit SMAPE %g not finite"
            e.e_error;
          let used = List.sort compare (Model.Expr.parameters e.e_model) in
          fresh :=
            {
              fr_hypotheses = e.e_hypotheses;
              fr_attempts = e.e_attempts;
              fr_retries = e.e_retries;
              fr_abandoned = e.e_abandoned;
              fr_error = e.e_error;
              fr_correct = used = Apps_table.total_truth app;
              fr_traced = Obs_trace.enabled tr;
            }
            :: !fresh)
  in
  let removed_one what resp =
    H.check ctx
      (field "removed" resp = Some (J.Int 1))
      "invalidate of %s removed nothing: %s" what resp
  in
  let invalidate ~tr ~slot st hot =
    let h = st.hot.(hot) in
    request ~tr ~key:("invalidate/" ^ slot) st (invalidate_line h.h_key)
      (removed_one "a hot key");
    request ~tr ~key:("miss/" ^ slot ^ ".refit") st (fit_line h.h_spec)
      (fun resp ->
        H.check ctx (resp = h.h_fit) "refit differs from the original: %s vs %s"
          resp h.h_fit)
  in
  (* After each pass, untimed: drop the pass's fresh fits again, so every
     pass starts on a catalog of the same size and its index rewrites cost
     the same. *)
  let drop_fresh st =
    List.iter
      (fun k ->
        ignore
          (H.op ctx "serve-mix.drop_fresh"
             ~check:(removed_one "a fresh key")
             (fun () -> ask st (invalidate_line k))))
      !fresh_keys;
    fresh_keys := []
  in
  let order = slots ctx.H.seed in
  let snap0 = ref Obs_metrics.empty_snapshot in
  (* The daemon the passes talk to is the first one set up; later set-ups
     are timed on catalogs of their own and disposed. *)
  let st, setup_s, passes =
    H.run_passes ctx ~setups:12
      ~setup:(fun () -> setup ctx)
      ~dispose ~adopt:false
      (fun ~tr st i ->
        if i = 0 then
          snap0 := Obs_metrics.snapshot (Serve.Server.metrics st.server);
        Array.iteri
          (fun j s ->
            let slot = string_of_int j in
            match s with
            | S_predict p -> predict ~tr ~slot st p
            | S_fit app -> fit ~tr ~slot st app
            | S_invalidate h -> invalidate ~tr ~slot st h)
          order;
        drop_fresh st)
  in
  let snap1 = Obs_metrics.snapshot (Serve.Server.metrics st.server) in
  let index_bytes =
    float_of_int (Unix.stat (Serve.Catalog.index_path st.catalog)).Unix.st_size
  in
  dispose st;
  (* Quality over the first fresh fits only, so it depends on the seed and
     not on how many passes the host's speed allowed. *)
  let judged = List.filteri (fun i _ -> i < quality_fits) (List.rev !fresh) in
  let correct = List.filter (fun f -> f.fr_correct) judged in
  let notes =
    [
      H.passes_note passes;
      Printf.sprintf "fresh fits judged: %d, total model parameters = truth: %d"
        (List.length judged) (List.length correct);
    ]
  in
  let e2e =
    H.timing_metrics ~setup_s passes
    @ [
        H.m "deps_correct_ratio" "ratio"
          (float_of_int (List.length correct)
          /. float_of_int (max 1 (List.length judged)));
      ]
  in
  let layers =
    if not ctx.H.trace then []
    else begin
      let npasses = float_of_int (List.length passes) in
      let delta name =
        let c s = Option.value ~default:0 (Obs_metrics.find_counter s name) in
        float_of_int (c snap1 - c !snap0) /. npasses
      in
      let hits = delta "serve.hits" and misses = delta "serve.misses" in
      let lat kind =
        H.unit_bests passes ~traced:true ~ops_only:true
          ~keep:(String.starts_with ~prefix:(kind ^ "/"))
      in
      let tf = List.filter (fun f -> f.fr_traced) !fresh in
      let ntr =
        float_of_int (List.length (List.filter (fun p -> p.H.traced) passes))
      in
      let sum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 tf) in
      let attempts = sum (fun f -> f.fr_attempts) in
      [
        H.latency_ms "serve.hit_p50_ms" (lat "hit") 0.5;
        H.latency_ms "serve.hit_p90_ms" (lat "hit") 0.9;
        H.latency_ms "serve.miss_p50_ms" (lat "miss") 0.5;
        H.latency_ms "serve.miss_p90_ms" (lat "miss") 0.9;
        H.latency_ms "serve.invalidate_p50_ms" (lat "invalidate") 0.5;
        H.m "serve.hits" "count" hits;
        H.m "serve.misses" "count" misses;
        H.m "serve.evictions" "count" (delta "serve.evictions");
        H.m "serve.hit_ratio" "ratio" (hits /. (hits +. misses));
        H.m "catalog.index_bytes" "B" index_bytes;
        H.m "campaign.attempts" "count" (attempts /. ntr);
        H.m "campaign.retries" "count" (sum (fun f -> f.fr_retries) /. ntr);
        H.m "campaign.abandoned" "count" (sum (fun f -> f.fr_abandoned) /. ntr);
        H.m "campaign.retry_ratio" "ratio"
          (sum (fun f -> f.fr_retries) /. attempts);
        H.m "search.hypotheses" "count" (sum (fun f -> f.fr_hypotheses) /. ntr);
        H.m "search.fits" "count" (float_of_int (List.length tf) /. ntr);
        H.m "search.smape_median_pct" "%"
          (H.median (List.map (fun f -> f.fr_error) judged));
      ]
      @ H.trace_metrics ctx passes
    end
  in
  (e2e, layers, notes)
