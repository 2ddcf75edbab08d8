(** Small utilities shared across the compiler and runtime. *)

(** [round_up n k] rounds [n] up to the next multiple of [k]. *)
let round_up n k = if k <= 0 then n else (n + k - 1) / k * k

(** [ceil_div n k] is ⌈n / k⌉ for positive [k]. *)
let ceil_div n k = (n + k - 1) / k

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** Next power of two ≥ [n] (for [n ≥ 1]). *)
let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let clamp lo hi v = max lo (min hi v)
let clampf lo hi v = Float.max lo (Float.min hi v)

(** List helpers --------------------------------------------------------- *)

let rec last = function
  | [] -> invalid_arg "Util.last: empty list"
  | [ x ] -> x
  | _ :: tl -> last tl

(** [tabulate n f] = [[f 0; f 1; ...; f (n-1)]]. *)
let tabulate n f = List.init n f

(** String helpers ------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0

(** Count the number of lines in a string (number of ['\n'] + 1 if nonempty). *)
let count_lines s =
  if String.length s = 0 then 0
  else String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 s

(** Indent every line of [s] by [n] spaces. *)
let indent n s =
  let pad = String.make n ' ' in
  String.split_on_char '\n' s
  |> List.map (fun line -> if line = "" then line else pad ^ line)
  |> String.concat "\n"

(** Formatting helpers --------------------------------------------------- *)

(** Human-readable byte sizes, matching the paper's Table 3 style. *)
let pp_bytes ppf n =
  if n >= 1_048_576 then Fmt.pf ppf "%.0fMB" (float_of_int n /. 1_048_576.)
  else if n >= 1_024 then Fmt.pf ppf "%.0fKB" (float_of_int n /. 1_024.)
  else Fmt.pf ppf "%dB" n

let bytes_to_string n = Fmt.str "%a" pp_bytes n

(** Geometric mean of a nonempty list of positive floats. *)
let geomean = function
  | [] -> invalid_arg "Util.geomean: empty"
  | l ->
      let n = float_of_int (List.length l) in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. n)
