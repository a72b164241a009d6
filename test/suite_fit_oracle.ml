(** Differential oracle for the fit layer: the search's closed-form
    leave-one-out kernel against a deliberately naive reference that
    refits every hypothesis once per left-out point.  Both must accept
    and reject the same hypotheses, agree on every leave-one-out SMAPE,
    and lead [Search.multi] to the same model (shape, coefficients and
    RSS bit-equal) — on seeded PMNF ground truths, on the measured apps'
    kernel datasets, and on degenerate designs.  On the ground truths
    the selection must also be invariant under permuting the points and
    scaling the observations. *)

module E = Model.Expr
module S = Model.Search
module D = Model.Dataset

(* -- the naive reference --------------------------------------------------- *)

let design_row h c =
  Array.of_list (1. :: List.map (fun f -> E.eval_factors f c) h)

let model_of h c =
  { E.const = c.(0);
    terms = List.mapi (fun i factors -> { E.coeff = c.(i + 1); factors }) h }

(* Leave-one-out SMAPE by refitting on the other n - 1 rows, or [None]
   when a sub-fit is singular.  Column j of the design is multiplied by
   [scale.(j)] before fitting and the coefficient by it after, which
   changes no prediction in exact arithmetic (and none at all for a
   scale of ones).  Predictions are consed, so [Dataset.smape] sees them
   in reverse point order. *)
let refit_smape ~scale ~coords ~y h =
  let n = Array.length coords in
  let rows =
    Array.map
      (fun c -> Array.mapi (fun j v -> v *. scale.(j)) (design_row h c))
      coords
  in
  let rec loo i preds =
    if i = n then Some (D.smape preds)
    else
      let keep = List.filter (fun j -> j <> i) (List.init n Fun.id) in
      let sub a = Array.of_list (List.map (fun j -> a.(j)) keep) in
      match Model.Linalg.least_squares (sub rows) (sub y) with
      | None -> None
      | Some c ->
        let c = Array.mapi (fun j v -> v *. scale.(j)) c in
        loo (i + 1) ((E.eval (model_of h c) coords.(i), y.(i)) :: preds)
  in
  loo 0 []

(* The parent search's scorer: the full fit, then n refits (on the
   column-scaled design when [scaled]). *)
let refit_loo ?(scaled = false) : S.scorer =
 fun ~coords ~y h ->
  let n = Array.length coords and cols = List.length h + 1 in
  let rows = Array.map (design_row h) coords in
  match Model.Linalg.least_squares rows y with
  | None -> None
  | Some coeffs ->
    let m = model_of h coeffs in
    let rss = ref 0. in
    Array.iteri
      (fun r row ->
        let pred = ref 0. in
        Array.iteri (fun c v -> pred := !pred +. (v *. coeffs.(c))) row;
        let d = y.(r) -. !pred in
        rss := !rss +. (d *. d))
      rows;
    let norm j =
      sqrt (Array.fold_left (fun a r -> a +. (r.(j) *. r.(j))) 0. rows)
    in
    let scale =
      Array.init cols (fun j -> if scaled then 1. /. norm j else 1.)
    in
    let err =
      if n <= cols then
        Some (D.smape (List.init n (fun i -> (E.eval m coords.(i), y.(i)))))
      else refit_smape ~scale ~coords ~y h
    in
    Option.map (fun err -> (err, !rss, coeffs)) err

(* -- comparison ------------------------------------------------------------ *)

(* κ₁(XᵀX).  The matrix is symmetric, so the 1-norm of each side is its
   largest absolute row sum, and the rows of [inv] are A⁻¹'s columns. *)
let condition rows k =
  let a =
    Array.init k (fun i ->
        Array.init k (fun j ->
            Array.fold_left (fun acc r -> acc +. (r.(i) *. r.(j))) 0. rows))
  in
  let inv =
    Array.init k (fun j ->
        Model.Linalg.solve a (Array.init k (fun i -> if i = j then 1. else 0.))
        |> Option.value ~default:(Array.make k Float.infinity))
  in
  let row_sum r = Array.fold_left (fun s v -> s +. Float.abs v) 0. r in
  let norm1 m = Array.fold_left (fun acc r -> Float.max acc (row_sum r)) 0. m in
  norm1 a *. norm1 inv

(* Both paths solve the normal equations, which lose about log10 κ(XᵀX)
   digits, so two LOO SMAPEs must agree to 1e-9 relative where XᵀX is
   well conditioned (κ up to ~4.5e6) and otherwise to 1000·eps·κ.  Over
   the app datasets and the generated truths the gap stayed under
   200·eps·κ, and every selected model agreed to 1e-9. *)
let check_error ~what ~rows ~k e1 e2 =
  let rel = Float.abs (e1 -. e2) /. Float.max 1. (Float.abs e1) in
  if rel > 1e-9 && rel > 1000. *. epsilon_float *. condition rows k then
    Alcotest.failf "%s: LOO SMAPE %.17g (closed form) vs %.17g (refits)" what
      e1 e2

(* Verdicts the column-scaled refits had to settle. *)
let adjudicated = ref 0

(* The reference answer for one hypothesis, checked against the closed
   form.  A sub-fit's pivot test is absolute (1e-12), which makes the
   plain refits' verdict scale-blind both ways: columns of tiny
   magnitude (minicg's n^-1.5 at n = 4e6) fail it although the
   sub-design is far from singular, and columns of large magnitude pass
   it with rounding noise although the sub-design is exactly singular.
   The closed form's 1 − h_ii test is scale-free.  Those are the
   deliberate differences: when the verdicts differ, the refits of the
   column-scaled design (unit column norms) decide, and they must side
   with the closed form. *)
let reference ~what ~coords ~y h =
  let closed = S.closed_form_loo ~coords ~y h in
  let refits =
    match (closed, refit_loo ~coords ~y h) with
    | Some _, (Some _ as r) | None, (None as r) -> r
    | _ ->
      incr adjudicated;
      refit_loo ~scaled:true ~coords ~y h
  in
  (match (closed, refits) with
  | None, None -> ()
  | Some (e1, r1, c1), Some (e2, r2, c2) ->
    let m1 = model_of h c1 in
    if compare c1 c2 <> 0 || r1 <> r2 then
      Alcotest.failf "%s: full fits differ (%s vs %s)" what (E.to_string m1)
        (E.to_string (model_of h c2));
    check_error ~what:(what ^ ", " ^ E.to_string m1)
      ~rows:(Array.map (design_row h) coords) ~k:(List.length h + 1) e1 e2
  | _ ->
    Alcotest.failf "%s: the closed form %s %s, the scaled refits do not" what
      (if closed = None then "rejects" else "accepts")
      (E.to_string (model_of h (Array.make (List.length h + 1) 1.))));
  refits

(* [multi] under the reference scorer — which checks every hypothesis it
   scores against the closed form on the way — against the default
   closed-form search. *)
let check_selection ?(config = S.default_config) what data =
  let naive = S.multi ~config ~score:(reference ~what) data in
  let fast = S.multi ~config data in
  if compare naive.S.model fast.S.model <> 0 || naive.S.rss <> fast.S.rss then
    Alcotest.failf "%s: refits select %s (RSS %h), closed form %s (RSS %h)"
      what (E.to_string naive.S.model) naive.S.rss (E.to_string fast.S.model)
      fast.S.rss;
  if
    Float.abs (naive.S.error -. fast.S.error)
    > 1e-9 *. Float.max 1. naive.S.error
  then
    Alcotest.failf "%s: selected LOO SMAPE %.17g vs %.17g" what naive.S.error
      fast.S.error;
  Alcotest.(check int) (what ^ ": hypotheses tried") naive.S.hypotheses_tried
    fast.S.hypotheses_tried

(* -- seeded PMNF ground truths --------------------------------------------- *)

let menu =
  List.concat_map
    (fun expo ->
      List.filter_map
        (fun logexp ->
          if expo = 0. && logexp = 0 then None else Some { E.expo; logexp })
        S.default_config.S.log_exponents)
    S.default_config.S.exponents
  |> Array.of_list

let pick rng a = a.(Random.State.int rng (Array.length a))

let grids =
  [| [ 2.; 4.; 8.; 16.; 32. ]; [ 4.; 8.; 16.; 32.; 64. ];
     [ 10.; 20.; 30.; 40.; 50. ]; [ 64.; 128.; 256.; 512.; 1024. ] |]

(* A PMNF function of one or two terms drawn from the paper's exponent
   menu; in two parameters each term is additive (one parameter) or
   multiplicative (both). *)
let truth rng params =
  let term () =
    let factors =
      match params with
      | [ p ] -> [ (p, pick rng menu) ]
      | _ when Random.State.bool rng ->
        [ (pick rng (Array.of_list params), pick rng menu) ]
      | _ -> List.map (fun p -> (p, pick rng menu)) params
    in
    { E.coeff = 0.5 +. Random.State.float rng 10.; factors }
  in
  { E.const = Random.State.float rng 5.;
    terms = List.init (1 + Random.State.int rng 2) (fun _ -> term ()) }

(* The truth on a 5-point grid per parameter (5 or 5×5 points), three
   repetitions each under 1-5% multiplicative noise. *)
let generated rng params =
  let m = truth rng params in
  let sigma = 0.01 +. Random.State.float rng 0.04 in
  let coords =
    List.fold_right
      (fun p acc ->
        List.concat_map
          (fun v -> List.map (fun c -> (p, v) :: c) acc)
          (pick rng grids))
      params [ [] ]
  in
  let rep c =
    E.eval m c *. (1. +. (sigma *. (Random.State.float rng 2. -. 1.)))
  in
  let rows = List.map (fun c -> (c, List.init 3 (fun _ -> rep c))) coords in
  (m, D.of_rows params rows)

let test_generated () =
  let rng = Random.State.make [| Fuzz.Seed.get () |] in
  let run params count =
    for i = 1 to count do
      let m, data = generated rng params in
      check_selection
        (Printf.sprintf "generated %s #%d (%s)" (String.concat "x" params) i
           (E.to_string m))
        data
    done
  in
  run [ "p" ] 40;
  run [ "p"; "n" ] 12

(* -- invariance ---------------------------------------------------------- *)

(* A model's coefficients keyed by term shape, intercept first. *)
let coefficients (m : E.model) =
  ([], m.E.const)
  :: List.sort compare
       (List.map
          (fun (t : E.compound_term) -> (List.sort compare t.factors, t.coeff))
          m.E.terms)

(* [other] selects [base]'s shape with every coefficient [scale] times
   [base]'s: to 1e-9 relative where XᵀX is well conditioned, otherwise
   to 1000·eps·κ(XᵀX) as in {!check_error} — both fits solve the normal
   equations, from sums taken in another order.  Over FUZZ_SEED 1-8 and
   42 the gap stayed under 4·eps·κ. *)
let check_invariant what ~scale (data : D.t) (base : S.result)
    (other : S.result) =
  if not (E.same_shape base.S.model other.S.model) then
    Alcotest.failf "%s: selects %s, not %s" what (E.to_string other.S.model)
      (E.to_string base.S.model);
  let h =
    List.map (fun (t : E.compound_term) -> t.factors) base.S.model.terms
  in
  let rows =
    Array.of_list
      (List.map (fun (pt : D.point) -> design_row h pt.coords) data.points)
  in
  let kappa = condition rows (List.length h + 1) in
  List.iter2
    (fun (_, b) (_, o) ->
      let rel = Float.abs ((scale *. b) -. o) /. Float.abs o in
      if rel > 1e-9 && rel > 1000. *. epsilon_float *. kappa then
        Alcotest.failf "%s: coefficient %.17g, expected %.17g (%s)" what o
          (scale *. b) (E.to_string base.S.model))
    (coefficients base.S.model) (coefficients other.S.model)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* On the ground truths: the selection does not depend on the order of
   the points, and scaling every observation by c scales the selected
   model's coefficients by c (SMAPE is scale-free) — exactly when c is a
   power of two, which scales every intermediate exactly. *)
let test_invariance () =
  let rng = Random.State.make [| Fuzz.Seed.get () |] in
  let run params count =
    for i = 1 to count do
      let m, data = generated rng params in
      let what =
        Printf.sprintf "generated %s #%d (%s)" (String.concat "x" params) i
          (E.to_string m)
      in
      let base = S.multi data in
      let permuted = { data with D.points = shuffle rng data.D.points } in
      check_invariant (what ^ ", points permuted") ~scale:1. data base
        (S.multi permuted);
      let scaled c =
        S.multi
          { data with
            D.points =
              List.map
                (fun (pt : D.point) ->
                  { pt with D.reps = List.map (fun v -> c *. v) pt.D.reps })
                data.D.points }
      in
      List.iter
        (fun c ->
          check_invariant (Printf.sprintf "%s, y scaled by %g" what c) ~scale:c
            data base (scaled c))
        [ 3.; 1e-6 ];
      let exact = scaled 1024. in
      let times_1024 (t : E.compound_term) =
        { t with coeff = 1024. *. t.coeff }
      in
      if
        exact.S.error <> base.S.error
        || compare exact.S.model
             { E.const = 1024. *. base.S.model.E.const;
               terms = List.map times_1024 base.S.model.E.terms }
           <> 0
      then
        Alcotest.failf
          "%s, y scaled by 1024: %s (SMAPE %h), not exactly %s (%h)" what (E.to_string exact.S.model) exact.S.error
          (E.to_string base.S.model) base.S.error
    done
  in
  run [ "p" ] 40;
  run [ "p"; "n" ] 12

(* -- the measured apps' kernel datasets ------------------------------------ *)

(* Every 8th kernel of each measured app, black-box, at two campaign
   noise seeds — a bound on the test's time: all kernels (~55 s) agree
   as well. *)
let test_apps () =
  adjudicated := 0;
  List.iter
    (fun (t : Apps.Target.t) ->
      Option.iter
        (fun (m : Apps.Target.measured) ->
          List.iter
            (fun seed ->
              let design =
                { Measure.Experiment.grid = m.grid; reps = 5;
                  mode = Measure.Instrument.Full; sigma = 0.02; seed }
              in
              let runs =
                Measure.Experiment.run_design m.spec
                  Mpi_sim.Machine.skylake_cluster design
              in
              let params = Measure.Experiment.fit_params m.grid in
              List.iteri
                (fun i kernel ->
                  let data =
                    Measure.Experiment.kernel_dataset runs ~params ~kernel
                  in
                  if i mod 8 = 0 && data.D.points <> [] then
                    check_selection ~config:m.search
                      (Printf.sprintf "%s/%s seed %d" t.name kernel seed)
                      data)
                (Measure.Spec.kernel_names m.spec))
            [ 42; 7 ])
        t.measured)
    Apps.Target.all;
  (* minicg's tiny negative-exponent columns need adjudicating. *)
  Alcotest.(check bool) "some verdicts adjudicated" true (!adjudicated > 0)

(* -- degenerate designs ---------------------------------------------------- *)

let t expo = { E.expo; logexp = 0 }

(* (name, xs, ys, hypothesis, closed-form verdict, adjudicated).  Both
   paths share the full fit, so a singular full design rejects in both —
   also the tiny column, whose pivot falls under the absolute 1e-12
   test.  A point whose removal leaves a singular sub-design has leverage
   1: the closed form rejects it by its 1 − h_ii bound, the refits by a
   sub-fit's pivot.  The last two cases are the deliberate differences
   {!reference} adjudicates. *)
let edge_cases =
  [
    ("duplicate coordinates", [ 2.; 2.; 4.; 4.; 8.; 8. ],
     [ 3.1; 2.9; 5.2; 4.8; 9.1; 8.9 ], [ [ ("p", t 1.) ] ], true, false);
    ("constant y", [ 1.; 2.; 3.; 4.; 5. ], [ 5.; 5.; 5.; 5.; 5. ],
     [ [ ("p", t 1.) ] ], true, false);
    ("n = cols + 1", [ 1.; 2.; 3. ], [ 2.; 4.1; 5.9 ], [ [ ("p", t 1.) ] ],
     true, false);
    ("leverage-1 point", [ 1.; 1.; 1.; 1.; 2. ], [ 1.; 1.1; 0.9; 1.; 2. ],
     [ [ ("p", t 1.) ] ], false, false);
    ("duplicates leave one point spanning p^2", [ 2.; 2.; 4.; 4.; 8. ],
     [ 3.1; 2.9; 5.2; 4.8; 9.1 ], [ [ ("p", t 1.) ]; [ ("p", t 2.) ] ],
     false, false);
    ("tiny-magnitude column", [ 1000.; 2000.; 3000.; 4000.; 5000. ],
     [ 1.; 1.2; 0.9; 1.1; 1. ], [ [ ("p", t (-2.)) ] ], false, false);
    ("small column: the plain sub-fits fail the absolute pivot test",
     [ 2.5e5; 5e5; 1e6; 2e6; 4e6 ], [ 1.; 1.2; 0.9; 1.1; 1. ],
     [ [ ("p", { E.expo = -1.5; logexp = 2 }) ] ], true, true);
    ("large columns: rounding noise passes the plain sub-fits' pivot test",
     [ 2.; 2.; 4.; 4.; 8. ], [ 3.1; 2.9; 5.2; 4.8; 9.1 ],
     [ [ ("p", { E.expo = 2.75; logexp = 2 }) ];
       [ ("p", { E.expo = 3.; logexp = 2 }) ] ], false, true);
  ]

let test_edge_cases () =
  List.iter
    (fun (name, xs, ys, h, accepted, adjudicates) ->
      let coords = Array.of_list (List.map (fun x -> [ ("p", x) ]) xs) in
      let y = Array.of_list ys in
      adjudicated := 0;
      let verdict = reference ~what:name ~coords ~y h <> None in
      Alcotest.(check bool) (name ^ ": accepted") accepted verdict;
      Alcotest.(check bool) (name ^ ": adjudicated") adjudicates
        (!adjudicated > 0);
      let rows = List.map2 (fun x v -> ([ ("p", x) ], [ v ])) xs ys in
      check_selection ~config:S.extended_config name (D.of_rows [ "p" ] rows))
    edge_cases

let tests =
  [
    Alcotest.test_case "closed-form LOO matches refits on degenerate designs"
      `Quick test_edge_cases;
    Alcotest.test_case "closed-form LOO matches refits on PMNF ground truths"
      `Quick test_generated;
    Alcotest.test_case "closed-form LOO matches refits on app kernel datasets"
      `Quick test_apps;
    Alcotest.test_case "selection invariant under point order and y scale"
      `Quick test_invariance;
  ]
