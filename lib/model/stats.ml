(** Model-quality statistics beyond the selection metric: coefficient of
    determination, adjusted R^2, the Akaike information criterion used by
    newer Extra-P versions, and simple bootstrap confidence intervals for
    model predictions. *)

(** Pairs of (prediction, observation). *)
type fit = (float * float) list

let sum = List.fold_left ( +. ) 0.

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let rss (pairs : fit) =
  sum (List.map (fun (p, o) -> (p -. o) ** 2.) pairs)

let tss (pairs : fit) =
  let m = mean (List.map snd pairs) in
  sum (List.map (fun (_, o) -> (o -. m) ** 2.) pairs)

(** Coefficient of determination; 1 = perfect fit, can be negative for
    models worse than the mean. *)
let r_squared pairs =
  let t = tss pairs in
  if t = 0. then if rss pairs = 0. then 1. else 0.
  else 1. -. (rss pairs /. t)

(** Adjusted R^2 penalising the [k] fitted coefficients. *)
let adjusted_r_squared ~k pairs =
  let n = List.length pairs in
  if n <= k + 1 then neg_infinity
  else
    let r2 = r_squared pairs in
    1. -. ((1. -. r2) *. float_of_int (n - 1) /. float_of_int (n - k - 1))

(** Akaike information criterion under Gaussian residuals, with the
    small-sample correction (AICc).  Lower is better. *)
let aic ?(corrected = true) ~k pairs =
  let n = float_of_int (List.length pairs) in
  if n <= 0. then infinity
  else
    let sigma2 = Float.max 1e-300 (rss pairs /. n) in
    let kf = float_of_int (k + 1) (* + variance parameter *) in
    let base = (n *. Float.log sigma2) +. (2. *. kf) in
    if corrected && n -. kf -. 1. > 0. then
      base +. (2. *. kf *. (kf +. 1.) /. (n -. kf -. 1.))
    else base

(** Median of a sample; [nan] on empty input. *)
let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(** Raw (unscaled) median absolute deviation; [nan] on empty input. *)
let mad xs =
  match xs with
  | [] -> nan
  | _ ->
    let m = median xs in
    median (List.map (fun x -> Float.abs (x -. m)) xs)

(* Consistency constant: 1.4826 * MAD estimates sigma under Gaussians,
   so the threshold below is a modified z-score (Iglewicz-Hoaglin). *)
let mad_sigma = 1.4826

(** Drop sample values whose modified z-score exceeds [threshold] — the
    standard robust outlier rejection (default 3.5).  When the MAD is
    zero (at least half the values identical) only exact-median values
    survive, since any deviation then has infinite z-score. *)
let mad_filter ?(threshold = 3.5) xs =
  match xs with
  | [] | [ _ ] -> xs
  | _ ->
    let med = median xs in
    let scale = mad_sigma *. mad xs in
    if scale = 0. then List.filter (fun x -> x = med) xs
    else List.filter (fun x -> Float.abs (x -. med) /. scale <= threshold) xs

(** Percentile (nearest-rank) of a sample. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let rank =
      int_of_float (Float.round (q /. 100. *. float_of_int (n - 1)))
    in
    List.nth sorted (max 0 (min (n - 1) rank))

(** Bootstrap confidence interval of a model's prediction at [coords]:
    refit on resampled points [trials] times and take the 2.5/97.5
    percentiles.  [fitter] maps a point list to a prediction function. *)
let bootstrap_ci ?(trials = 200) ?(seed = 17) ~fitter ~coords points =
  let n = List.length points in
  if n = 0 then (nan, nan)
  else begin
    let rng = Random.State.make [| seed |] in
    let arr = Array.of_list points in
    let preds = ref [] in
    for _ = 1 to trials do
      let resample =
        List.init n (fun _ -> arr.(Random.State.int rng n))
      in
      match fitter resample with
      | Some predict -> preds := predict coords :: !preds
      | None -> ()
    done;
    (percentile 2.5 !preds, percentile 97.5 !preds)
  end

(** Pairs of a model against a dataset's point means. *)
let pairs_of_model (m : Expr.model) (data : Dataset.t) : fit =
  List.map
    (fun (pt : Dataset.point) ->
      (Expr.eval m pt.Dataset.coords, Dataset.point_mean pt))
    data.Dataset.points

(** Number of fitted coefficients of a model (terms + intercept). *)
let coefficients (m : Expr.model) = 1 + List.length m.Expr.terms

(** One-stop evaluation of a fitted model against its dataset. *)
type summary = {
  s_r2 : float;
  s_adj_r2 : float;
  s_aicc : float;
  s_smape : float;
  s_rss : float;
}

let summarize (m : Expr.model) (data : Dataset.t) =
  let pairs = pairs_of_model m data in
  let k = coefficients m in
  {
    s_r2 = r_squared pairs;
    s_adj_r2 = adjusted_r_squared ~k pairs;
    s_aicc = aic ~k pairs;
    s_smape = Dataset.smape pairs;
    s_rss = rss pairs;
  }

let pp_summary ppf s =
  Fmt.pf ppf "R2=%.4f adjR2=%.4f AICc=%.1f SMAPE=%.2f%% RSS=%.3g" s.s_r2
    s.s_adj_r2 s.s_aicc s.s_smape s.s_rss
