type table = {
  title : string;
  col_labels : string list;
  rows : (string * float list) list;
  unit_label : string;
}

let make ~title ~unit_label ~cols rows =
  List.iter
    (fun (name, vs) ->
      if List.length vs <> List.length cols then
        invalid_arg (Printf.sprintf "Series.make: row %S has %d cells, expected %d" name (List.length vs) (List.length cols)))
    rows;
  { title; col_labels = cols; rows; unit_label }

let fmt_cell v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let pp ppf t =
  let first_col_width =
    List.fold_left (fun acc (n, _) -> Int.max acc (String.length n)) 12 t.rows
  in
  let col_width =
    List.fold_left (fun acc c -> Int.max acc (String.length c + 2)) 10 t.col_labels
  in
  let pad_left s w = String.make (Int.max 0 (w - String.length s)) ' ' ^ s in
  let pad_right s w = s ^ String.make (Int.max 0 (w - String.length s)) ' ' in
  Format.fprintf ppf "=== %s (%s) ===@." t.title t.unit_label;
  Format.fprintf ppf "%s" (pad_right "" first_col_width);
  List.iter (fun c -> Format.fprintf ppf "%s" (pad_left c col_width)) t.col_labels;
  Format.fprintf ppf "@.";
  List.iter
    (fun (name, vs) ->
      Format.fprintf ppf "%s" (pad_right name first_col_width);
      List.iter (fun v -> Format.fprintf ppf "%s" (pad_left (fmt_cell v) col_width)) vs;
      Format.fprintf ppf "@.")
    t.rows

let print t =
  pp Format.std_formatter t;
  Format.print_newline ()

let cell t ~row ~col =
  let vs = List.assoc row t.rows in
  let rec idx i = function
    | [] -> raise Not_found
    | c :: _ when c = col -> i
    | _ :: rest -> idx (i + 1) rest
  in
  List.nth vs (idx 0 t.col_labels)

let normalize_to t ~row =
  let base = List.assoc row t.rows in
  let rows =
    List.map
      (fun (name, vs) ->
        (name, List.map2 (fun v b -> if b = 0.0 then 0.0 else v /. b) vs base))
      t.rows
  in
  { t with rows; unit_label = "normalized to " ^ row }

let csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (t.title :: t.col_labels));
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, vs) ->
      Buffer.add_string buf
        (String.concat "," (name :: List.map (Printf.sprintf "%.6g") vs));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf
