(** PMNF hypothesis search — the Extra-P model generator (paper Section
    4.5), including the two published heuristics: single-parameter search
    over a fixed exponent menu, and multi-parameter search restricted to
    combinations of the best single-parameter models.

    The hybrid (tainted) mode threads [constraints] through the search:
    parameters proven irrelevant by the taint analysis are excluded from
    the hypothesis space, and multiplicative terms are only generated for
    parameter pairs whose loops actually nest (Section 5.2's explicit
    multiplicative and additive dependencies). *)

(* How a point's repeated measurements collapse into the value the
   search fits.  The mean is the classic Extra-P choice; the median
   survives corrupted repetitions (broken timers, stragglers) that
   would otherwise drag the fit — the degradation-tolerant mode. *)
type aggregate = Mean | Median

type config = {
  exponents : float list;      (** the set I of polynomial exponents *)
  log_exponents : int list;    (** the set J of logarithm exponents *)
  max_terms : int;             (** n in the PMNF; the paper uses 2 *)
  min_improvement : float;
      (** a parametric hypothesis must beat the constant model's
          cross-validated error by this relative margin to be accepted —
          the guard against modeling noise on constant functions *)
  aggregate : aggregate;
      (** how repeated measurements collapse into one fitted value *)
  metrics : Obs_metrics.t option;
      (** when set, the search counts candidates generated (per term
          class), evaluated, and rejected into this registry *)
  pool : Par.Pool.t option;
      (** when set, candidate hypotheses are scored on this domain pool;
          the selected model is bit-identical to the serial search *)
  events : Obs_events.sink;
      (** structured event stream: best-so-far improvements and the
          final selection; [Obs_events.disabled] by default *)
}

(* The exact single-parameter search space printed in the paper. *)
let default_config =
  {
    exponents =
      [ 0.; 0.25; 1. /. 3.; 0.5; 2. /. 3.; 0.75; 1.; 1.25; 4. /. 3.; 1.5;
        5. /. 3.; 1.75; 2.; 2.25; 2.5; 8. /. 3.; 2.75; 3. ];
    log_exponents = [ 0; 1; 2 ];
    max_terms = 2;
    (* Extra-P 3.0 (the paper's version) selects the best cross-validated
       fit with no acceptance margin — which is exactly why black-box
       modeling overfits noise on constant functions (B1).  The margin is
       an opt-in guard. *)
    min_improvement = 0.;
    aggregate = Mean;
    metrics = None;
    pool = None;
    events = Obs_events.disabled;
  }

(* The paper notes the sets can be expanded when expectations about the
   application exist; strong-scaling studies need decreasing per-process
   terms, so this variant adds negative polynomial exponents (matching
   Extra-P's configurable search space). *)
let extended_config =
  {
    default_config with
    exponents =
      [ -2.; -1.5; -1.; -2. /. 3.; -0.5; -1. /. 3.; -0.25 ]
      @ default_config.exponents;
  }

(* Bump on any change to how the search scores or selects hypotheses, so
   that fits memoized by an older build stop matching. *)
let algorithm_version = 2

(* Only the fields that change the selected model: metrics, pool and
   events are bit-identical by contract.  Floats in hex, so the text is
   exact. *)
let fingerprint c =
  let floats l = String.concat "," (List.map (Printf.sprintf "%h") l) in
  Printf.sprintf "search v%d exponents=%s log_exponents=%s max_terms=%d \
                  min_improvement=%h aggregate=%s"
    algorithm_version (floats c.exponents)
    (String.concat "," (List.map string_of_int c.log_exponents))
    c.max_terms c.min_improvement
    (match c.aggregate with Mean -> "mean" | Median -> "median")

type constraints = {
  allowed : string list option;
      (** parameters permitted to appear; [None] = all (black-box mode) *)
  multiplicative : (string -> string -> bool) option;
      (** may these two parameters share a product term? [None] = yes *)
}

let unconstrained = { allowed = None; multiplicative = None }

type result = {
  model : Expr.model;
  error : float;        (** leave-one-out cross-validated SMAPE, percent *)
  rss : float;
  hypotheses_tried : int;
}

(* -- hypothesis machinery ------------------------------------------------ *)

(* A hypothesis is a list of basis terms (products of per-parameter simple
   terms); coefficients are fitted by least squares with an intercept. *)
type hypothesis = (string * Expr.simple_term) list list

let simple_terms config =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun j ->
          if e = 0. && j = 0 then None else Some { Expr.expo = e; logexp = j })
        config.log_exponents)
    config.exponents

let model_of_fit (h : hypothesis) coeffs =
  {
    Expr.const = coeffs.(0);
    terms =
      List.mapi (fun i factors -> { Expr.coeff = coeffs.(i + 1); factors }) h;
  }

(* The design of [h] over the points, column by column: the intercept's
   ones, then each basis term's value at every point. *)
let columns coords (h : hypothesis) =
  Array.of_list
    (Array.make (Array.length coords) 1.
    :: List.map (fun factors -> Array.map (Expr.eval_factors factors) coords) h)

(* -- scoring --------------------------------------------------------------- *)

type scorer =
  coords:(string * float) list array -> y:float array -> hypothesis ->
  (float * float * float array) option

(* Leave-one-out in closed form: refitting without point i predicts it
   as y_i − e_i/(1 − h_ii), from the full fit's residual e_i and leverage
   h_ii = x_iᵀ(XᵀX)⁻¹x_i, so one factorization scores a hypothesis
   instead of n+1.  h_ii = 1 exactly when point i alone spans some
   direction of the design, i.e. dropping it leaves a singular
   sub-design: such a hypothesis cannot be cross-validated and is
   rejected.  1 − h_ii is scale-free, unlike the fit's absolute pivot
   test.  With as few points as coefficients the error is the training
   SMAPE. *)
let min_loo_gap = 1e-8

(* The kernel's buffers, sized for one search call's points and widest
   hypothesis; each domain scoring candidates owns one. *)
type scratch = {
  ws : Linalg.workspace;
  resid : float array;
  aux : float array;  (* leverages, then left-out predictions *)
}

let scratch ~rows ~cols =
  { ws = Linalg.workspace ~cols; resid = Array.make rows 0.;
    aux = Array.make rows 0. }

(* Scores the design [cols] against [y] in [s], allocating only the
   result.  The operation order is a contract, since catalogs and
   baselines store the last bits (doc/MODELING.md): residuals
   y_i − Σ_j x_ij c_j summed from 0, RSS up the rows, training
   predictions in [Expr.eval]'s order (c_0 + Σ_j c_j x_ij), and the
   left-out predictions' SMAPE from the last point down. *)
let loo_kernel s cols y =
  let n = Array.length y and k = Array.length cols in
  if not (Linalg.fit s.ws cols y) then None
  else begin
    let c = Linalg.coefficients s.ws and resid = s.resid and aux = s.aux in
    let rss = ref 0. in
    for i = 0 to n - 1 do
      let fitted = ref 0. in
      for j = 0 to k - 1 do fitted := !fitted +. (cols.(j).(i) *. c.(j)) done;
      let e = y.(i) -. !fitted in
      resid.(i) <- e;
      rss := !rss +. (e *. e)
    done;
    let predicted =
      if n > k then begin
        Linalg.leverages s.ws cols aux;
        let ok = ref true in
        for i = 0 to n - 1 do
          let gap = 1. -. aux.(i) in
          if gap > min_loo_gap then aux.(i) <- y.(i) -. (resid.(i) /. gap)
          else ok := false
        done;
        !ok
      end
      else begin
        for i = 0 to n - 1 do
          let pred = ref c.(0) in
          for j = 1 to k - 1 do pred := !pred +. (c.(j) *. cols.(j).(i)) done;
          aux.(i) <- !pred
        done;
        true
      end
    in
    if not predicted then None
    else
      Some (Dataset.smape_arrays ~rev:(n > k) aux y, !rss, Array.sub c 0 k)
  end

let closed_form_loo ~coords ~y h =
  let cols = columns coords h in
  loo_kernel (scratch ~rows:(Array.length y) ~cols:(Array.length cols)) cols y

(* Search-cost accounting: resolved once per select_best call; a [None]
   registry costs nothing on the scoring path. *)
let bump = function None -> () | Some c -> Obs_metrics.incr c
let bump_n n = function None -> () | Some c -> Obs_metrics.add c n

let counter metrics name =
  Option.map (fun reg -> Obs_metrics.counter reg name) metrics

let candidate_counter metrics cls = counter metrics ("search.candidates." ^ cls)

(* The search.* event vocabulary; doc/OBSERVABILITY.md lists exactly
   these (a drift test compares). *)
let event_names =
  [
    ("search.best", "a candidate hypothesis improved on the best so far");
    ("search.selected", "the search finished and selected its model");
  ]

(* One candidate's fit as the selection fold sees it; the winner's
   model is built from [coeffs] once the fold is done. *)
type scored = {
  h : hypothesis;
  coeffs : float array;
  err : float;
  rss : float;
  terms : int;
}

(* Score every candidate — a hypothesis with its design columns, at
   most [width] of them — and return the winner as a [result].  The
   constant model (intercept only) always participates; a parametric
   hypothesis must beat its cross-validated error by [min_improvement]
   (relative) to be selected — otherwise noise on constant functions
   gets modeled.

   Serially, candidates are generated, scored and folded one at a time,
   so no candidate outlives its turn unless it leads.  Scoring each
   candidate is independent of every other, so with a pool the
   candidates (columns included) are built first and the evaluations
   fan out over worker domains, which read the columns and write only
   their own scratch; selection stays a serial fold on the submitting
   domain, in candidate order, replicating the serial accounting and
   tie-breaking exactly — the chosen model, error and every search.*
   counter are bit-identical to the serial search. *)
let select_best config ?score ~coords ~y ~width candidates =
  let { min_improvement; metrics; pool; events; _ } = config in
  let record_select_s =
    match
      Option.map (fun reg -> Obs_metrics.gauge reg "search.select_s") metrics
    with
    | None -> fun _ -> ()
    | Some g -> Obs_metrics.add_gauge g
  in
  Obs_clock.timed record_select_s @@ fun () ->
  let evaluated = counter metrics "search.evaluated"
  and rej_unfit = counter metrics "search.rejected.unfit"
  and rej_threshold = counter metrics "search.rejected.threshold"
  and lsq_solves = counter metrics "search.lsq_solves" in
  let n = Array.length y in
  (* One factorization per hypothesis with at least as many points as
     coefficients. *)
  let count_solve (h, _) =
    match lsq_solves with
    | Some c when n > List.length h -> Obs_metrics.incr c
    | _ -> ()
  in
  let score_one s (h, cols) =
    let fit =
      match score with
      | None -> loo_kernel s cols y
      | Some score -> score ~coords ~y h
    in
    Option.map
      (fun (err, rss, coeffs) -> { h; coeffs; err; rss; terms = List.length h })
      fit
  in
  let init () = scratch ~rows:n ~cols:width in
  let own = init () in
  let tried = ref 0 in
  (* Best-so-far improvements are reported from the serial selection fold
     on the submitting domain, so the event stream is deterministic and
     identical with or without a pool. *)
  let emit_best c =
    if Obs_events.enabled events then
      Obs_events.emit events ~severity:Obs_events.Debug ~component:"search"
        ~fields:
          [
            ("error", Obs_events.Float c.err);
            ("terms", Obs_events.Int c.terms);
            ("tried", Obs_events.Int !tried);
          ]
        "search.best"
  in
  let consider best scored_cand =
    incr tried;
    bump evaluated;
    match scored_cand with
    | Some c -> (
      match best with
      | None -> Some c
      | Some b ->
        (* Prefer lower CV error; break near-ties toward fewer terms,
           then lower RSS. *)
        if
          c.err < b.err -. 1e-9
          || (Float.abs (c.err -. b.err) <= 1e-9
              && (c.terms < b.terms || (c.terms = b.terms && c.rss < b.rss)))
        then scored_cand
        else best)
    | None ->
      bump rej_unfit;
      best
  in
  (* The constant hypothesis [] is scored first to anchor the
     threshold. *)
  let constant_cand = ([], [| Array.make n 1. |]) in
  count_solve constant_cand;
  let constant = consider None (score_one own constant_cand) in
  Option.iter emit_best constant;
  let threshold =
    match constant with
    | Some c -> c.err *. (1. -. min_improvement)
    | None -> Float.infinity
  in
  let step best scored_cand =
    let cand = consider best scored_cand in
    match cand with
    | Some c when c.terms = 0 || c.err <= threshold +. 1e-12 ->
      if cand != best then emit_best c;
      cand
    | _ ->
      (* Only a *new* candidate reaching this branch was beaten by the
         constant-model margin; an unchanged best was counted already. *)
      if cand != best then bump rej_threshold;
      best
  in
  let best =
    match pool with
    | Some p when Par.Pool.jobs p > 1 ->
      let candidates = List.of_seq candidates in
      List.iter count_solve candidates;
      List.fold_left step constant
        (Par.Pool.map_init p ~init score_one candidates)
    | _ ->
      Seq.fold_left
        (fun best cand ->
          count_solve cand;
          step best (score_one own cand))
        constant candidates
  in
  let result =
    match best with
    | Some c ->
      { model = model_of_fit c.h c.coeffs; error = c.err; rss = c.rss;
        hypotheses_tried = !tried }
    | None ->
      (* Degenerate data (e.g. no points): report a constant zero model. *)
      { model = Expr.constant 0.; error = 0.; rss = 0.;
        hypotheses_tried = !tried }
  in
  if Obs_events.enabled events then
    Obs_events.emit events ~component:"search"
      ~fields:
        [
          ("error", Obs_events.Float result.error);
          ("terms", Obs_events.Int (List.length result.model.Expr.terms));
          ("tried", Obs_events.Int result.hypotheses_tried);
        ]
      "search.selected";
  result

(* -- single-parameter search --------------------------------------------- *)

let allowed_param constraints p =
  match constraints.allowed with None -> true | Some l -> List.mem p l

(** Fit a model in one parameter from [(x, y-mean)] samples. *)
let single ?(config = default_config) ?(constraints = unconstrained) ?score
    ~param samples =
  let xs = Array.of_list (List.map fst samples) in
  let coords = Array.map (fun x -> [ (param, x) ]) xs in
  let y = Array.of_list (List.map snd samples) in
  let select_best = select_best config ?score ~coords ~y in
  if not (allowed_param constraints param) then
    select_best ~width:1 Seq.empty
  else begin
    (* The basis table: each term of the menu evaluated once per sample,
       its column shared by every hypothesis using the term. *)
    let ones = Array.make (Array.length xs) 1. in
    let basis =
      Array.of_list
        (List.map
           (fun t -> ((param, t), Array.map (Expr.eval_simple t) xs))
           (simple_terms config))
    in
    let m = Array.length basis in
    let n1 =
      Seq.map
        (fun (f, col) -> ([ [ f ] ], [| ones; col |]))
        (Array.to_seq basis)
    in
    (* Every pair i < j, i descending and then j descending: the order
       the two-term hypotheses have always been scored in, which decides
       exact ties. *)
    let down_to lo = Seq.init (m - lo) (fun d -> m - 1 - d) in
    let n2 =
      if config.max_terms < 2 then Seq.empty
      else
        Seq.concat_map
          (fun i ->
            let fa, ca = basis.(i) in
            Seq.map
              (fun j ->
                let fb, cb = basis.(j) in
                ([ [ fa ]; [ fb ] ], [| ones; ca; cb |]))
              (down_to (i + 1)))
          (down_to 0)
    in
    bump_n m (candidate_counter config.metrics "single_term");
    bump_n
      (if config.max_terms < 2 then 0 else m * (m - 1) / 2)
      (candidate_counter config.metrics "two_term");
    select_best
      ~width:(if config.max_terms < 2 then 2 else 3)
      (Seq.append n1 n2)
  end

(* -- multi-parameter search ---------------------------------------------- *)

(* All partitions of a list into non-empty groups (Bell-number many; fine
   for <= 4 parameters). *)
let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun part ->
        (* x joins an existing group, or starts its own. *)
        let extended =
          List.mapi
            (fun i _ ->
              List.mapi (fun j g -> if i = j then x :: g else g) part)
            part
        in
        ([ x ] :: part) :: extended)
      (partitions rest)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    s @ List.map (fun sub -> x :: sub) s

(* The dominant simple term of a fitted single-parameter model: the term
   whose contribution has the largest magnitude anywhere on the sampled
   range — the representative used when composing multi-parameter
   hypotheses.  (Choosing by asymptotic growth instead would mis-rank
   decreasing terms such as p^-1 against small increasing ones.) *)
let dominant_term param (m : Expr.model) xs =
  let magnitude coeff (st : Expr.simple_term) =
    List.fold_left
      (fun acc x -> Float.max acc (Float.abs (coeff *. Expr.eval_simple st x)))
      0. xs
  in
  List.filter_map
    (fun (t : Expr.compound_term) ->
      match List.assoc_opt param t.factors with
      | Some st when not (st.expo = 0. && st.logexp = 0) ->
        Some (magnitude t.coeff st, st)
      | _ -> None)
    m.terms
  |> List.fold_left
       (fun best (mag, st) ->
         match best with
         | Some (bmag, _) when bmag >= mag -> best
         | _ -> Some (mag, st))
       None
  |> Option.map snd

let group_allowed constraints group =
  match constraints.multiplicative with
  | None -> true
  | Some ok ->
    let rec pairs = function
      | [] | [ _ ] -> true
      | a :: rest -> List.for_all (fun b -> ok a b || ok b a) rest && pairs rest
    in
    pairs (List.map fst group)

(** Fit a model in all of [data]'s parameters.  Implements Extra-P's
    multi-parameter heuristic: best single-parameter model per parameter
    (on the slice where the other parameters sit at their minimum), then
    all additive/multiplicative compositions of the dominant terms. *)
(* The configured collapse of a point's repetitions. *)
let point_value config (pt : Dataset.point) =
  match config.aggregate with
  | Mean -> Dataset.point_mean pt
  | Median -> Stats.median pt.Dataset.reps

let multi ?(config = default_config) ?(constraints = unconstrained) ?score
    data =
  if data.Dataset.points = [] then
    invalid_arg "Model.Search.multi: empty dataset (no observed configurations)";
  let params = List.filter (allowed_param constraints) data.Dataset.params in
  let coords =
    Array.of_list (List.map (fun p -> p.Dataset.coords) data.Dataset.points)
  in
  let y = Array.of_list (List.map (point_value config) data.Dataset.points) in
  let select_best = select_best config ?score ~coords ~y in
  match params with
  | [] -> select_best ~width:1 Seq.empty
  | [ p ] ->
    (* Single free parameter: collapse coordinates and delegate. *)
    let samples =
      List.mapi (fun i pt -> (Dataset.coord pt p, y.(i))) data.Dataset.points
    in
    let r = single ~config ~constraints ?score ~param:p samples in
    (* Re-express the error against the full point set for comparability. *)
    { r with
      error =
        Dataset.smape
          (List.init (Array.length y) (fun i ->
               (Expr.eval r.model coords.(i), y.(i)))) }
  | _ ->
    (* Phase 1: candidate terms per parameter — the dominant term of the
       best single-parameter model plus the term of the best one-term
       hypothesis (often cleaner when the full model slightly overfits). *)
    let candidate_terms =
      List.filter_map
        (fun p ->
          let fixed =
            List.filter_map
              (fun q ->
                if q = p then None else Some (q, Dataset.min_value data q))
              data.Dataset.params
          in
          let sliced = Dataset.slice data ~fixed in
          let samples =
            List.map
              (fun pt -> (Dataset.coord pt p, point_value config pt))
              sliced.Dataset.points
          in
          if List.length samples < 2 then None
          else begin
            let xs = List.map fst samples in
            let best = single ~config ~constraints ?score ~param:p samples in
            let best1 =
              single ~config:{ config with max_terms = 1 } ~constraints
                ?score ~param:p samples
            in
            let terms =
              List.filter_map
                (fun (m : Expr.model) -> dominant_term p m xs)
                [ best.model; best1.model ]
              |> List.sort_uniq compare
            in
            if terms = [] then None else Some (p, terms)
          end)
        params
    in
    (* Phase 2: all subset/partition compositions over the candidate
       terms. *)
    let rec assignments = function
      | [] -> [ [] ]
      | (p, terms) :: rest ->
        let tails = assignments rest in
        List.concat_map
          (fun st -> List.map (fun tail -> (p, st) :: tail) tails)
          terms
    in
    let hypotheses =
      subsets candidate_terms
      |> List.filter (fun s -> s <> [])
      |> List.concat_map assignments
      |> List.concat_map (fun subset ->
             partitions subset
             |> List.filter_map (fun part ->
                    if List.for_all (group_allowed constraints) part then
                      Some (part : hypothesis)
                    else None))
      |> List.sort_uniq compare
    in
    bump_n (List.length hypotheses)
      (candidate_counter config.metrics "multi_param");
    select_best
      ~width:
        (1 + List.fold_left (fun w h -> max w (List.length h)) 0 hypotheses)
      (Seq.map (fun h -> (h, columns coords h)) (List.to_seq hypotheses))

(* -- degradation-tolerant search ------------------------------------------ *)

(** Outlier-robust fit: per configuration, reject repetitions whose
    modified z-score exceeds [threshold] (MAD-based, see
    {!Stats.mad_filter}), drop configurations left with no repetitions,
    aggregate the survivors by median, and run {!multi}.  Returns the
    result plus the number of rejected measurements — campaigns report
    it so a model fitted from degraded data says so. *)
let multi_robust ?(threshold = 3.5) ?(config = default_config)
    ?(constraints = unconstrained) data =
  let rejected = ref 0 in
  let points =
    List.filter_map
      (fun (pt : Dataset.point) ->
        let kept = Stats.mad_filter ~threshold pt.Dataset.reps in
        rejected := !rejected + (List.length pt.Dataset.reps - List.length kept);
        if kept = [] then None else Some { pt with Dataset.reps = kept })
      data.Dataset.points
  in
  let r =
    multi
      ~config:{ config with aggregate = Median }
      ~constraints
      { data with Dataset.points }
  in
  (r, !rejected)
