(** Small dense linear algebra: ordinary least squares via normal
    equations, factored once by Gaussian elimination with partial
    pivoting.  The PMNF hypothesis spaces are tiny (at most ~5 columns),
    so numerical sophistication beyond pivoting is unnecessary.  A
    least-squares {!fit} keeps its factorization of XᵀX, so a row's
    leverage xᵀ(XᵀX)⁻¹x costs one more solve against it, not a refit. *)

(* [u] holds U on and above the diagonal and the elimination multipliers
   below it; rows were swapped whole, so applying the swaps [perm.(col)]
   in order permutes a right-hand side to match. *)
type lu = { u : float array array; perm : int array }

(* A pivot below 1e-12 in magnitude counts as singular. *)
let factor a =
  let n = Array.length a in
  let u = Array.map Array.copy a and perm = Array.make n 0 in
  let rec step col =
    if col = n then Some { u; perm }
    else begin
      let piv = ref col in
      for r = col + 1 to n - 1 do
        if Float.abs u.(r).(col) > Float.abs u.(!piv).(col) then piv := r
      done;
      perm.(col) <- !piv;
      let tmp = u.(col) in u.(col) <- u.(!piv); u.(!piv) <- tmp;
      if Float.abs u.(col).(col) < 1e-12 then None
      else begin
        for r = col + 1 to n - 1 do
          let f = u.(r).(col) /. u.(col).(col) in
          for c = col + 1 to n - 1 do
            u.(r).(c) <- u.(r).(c) -. (f *. u.(col).(c))
          done;
          u.(r).(col) <- f
        done;
        step (col + 1)
      end
    end
  in
  step 0

(* Every value takes the same floating-point operations, in the same
   order, as eliminating the right-hand side alongside the matrix. *)
let solve_lu { u; perm } b =
  let n = Array.length b in
  let x = Array.copy b in
  Array.iteri (fun c p -> let t = x.(c) in x.(c) <- x.(p); x.(p) <- t) perm;
  for c = 0 to n - 1 do
    for r = c + 1 to n - 1 do x.(r) <- x.(r) -. (u.(r).(c) *. x.(c)) done
  done;
  for r = n - 1 downto 0 do
    let s = ref x.(r) in
    for c = r + 1 to n - 1 do s := !s -. (u.(r).(c) *. x.(c)) done;
    x.(r) <- !s /. u.(r).(r)
  done;
  if Array.for_all Float.is_finite x then Some x else None

let solve a b = Option.bind (factor a) (fun lu -> solve_lu lu b)

type fit = { coeffs : float array; lu : lu }

let fit design y =
  let rows = Array.length design in
  if rows = 0 || rows < Array.length design.(0) then None
  else begin
    let cols = Array.length design.(0) in
    (* Normal equations: (X^T X) c = X^T y. *)
    let xtx = Array.make_matrix cols cols 0. in
    let xty = Array.make cols 0. in
    for r = 0 to rows - 1 do
      for i = 0 to cols - 1 do
        xty.(i) <- xty.(i) +. (design.(r).(i) *. y.(r));
        for j = 0 to cols - 1 do
          xtx.(i).(j) <- xtx.(i).(j) +. (design.(r).(i) *. design.(r).(j))
        done
      done
    done;
    Option.bind (factor xtx) (fun lu ->
        Option.map (fun coeffs -> { coeffs; lu }) (solve_lu lu xty))
  end

let least_squares design y = Option.map (fun f -> f.coeffs) (fit design y)

let dot x z =
  let s = ref 0. in
  Array.iteri (fun i v -> s := !s +. (v *. z.(i))) x;
  !s

(* NaN, which fails every comparison, if the solve is not finite. *)
let leverage f x = Option.fold ~none:Float.nan ~some:(dot x) (solve_lu f.lu x)

let residuals design y coeffs =
  Array.mapi (fun r row -> y.(r) -. dot row coeffs) design
