(* Reusable litmus-test mutations, shared by the sanitizer cross-check
   (strip everything, expect the latent race to surface), the fence
   synthesizer (apply candidate point edits) and the fuzz-repair soak
   (strip only what synthesis can re-insert). *)

let has_order_devices (t : Lang.test) =
  List.exists
    (List.exists (function
      | Lang.Fence _ -> true
      | Lang.Load { acquire; addr_dep; _ } -> acquire || addr_dep <> None
      | Lang.Store { release; addr_dep; v; _ } -> (
        release || addr_dep <> None
        || match v with Lang.Reg _ -> true | Lang.Const _ -> false)))
    t.threads

let has_strippable_devices ~keep_values (t : Lang.test) =
  if not keep_values then has_order_devices t
  else
    List.exists
      (List.exists (function
        | Lang.Fence _ -> true
        | Lang.Load { acquire; addr_dep; _ } -> acquire || addr_dep <> None
        | Lang.Store { release; addr_dep; _ } -> release || addr_dep <> None))
      t.threads

let strip_order ?(keep_values = false) (t : Lang.test) =
  let strip_i = function
    | Lang.Load { var; reg; _ } ->
      Some (Lang.Load { var; reg; acquire = false; addr_dep = None })
    | Lang.Store { var; v; _ } ->
      let v =
        match v with
        | Lang.Const k -> Lang.Const k
        | Lang.Reg r -> if keep_values then Lang.Reg r else Lang.Const 1L
      in
      Some (Lang.Store { var; v; release = false; addr_dep = None })
    | Lang.Fence _ -> None
  in
  {
    t with
    Lang.name = t.name ^ "-stripped";
    threads = List.map (List.filter_map strip_i) t.threads;
  }

(* ---------- point edits ---------- *)

let on_thread th f (t : Lang.test) =
  { t with Lang.threads = List.mapi (fun i body -> if i = th then f body else body) t.threads }

let insert_at pos x l =
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> [ x ] (* pos beyond the end: append *)
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

let map_nth idx f l = List.mapi (fun i x -> if i = idx then f x else x) l

let insert_fence ~thread ~pos f t = on_thread thread (insert_at pos (Lang.Fence f)) t

let set_acquire ~thread ~idx t =
  on_thread thread
    (map_nth idx (function Lang.Load l -> Lang.Load { l with acquire = true } | i -> i))
    t

let set_release ~thread ~idx t =
  on_thread thread
    (map_nth idx (function Lang.Store s -> Lang.Store { s with release = true } | i -> i))
    t

let set_addr_dep ~thread ~idx ~reg t =
  on_thread thread
    (map_nth idx (function
      | Lang.Load l -> Lang.Load { l with addr_dep = Some reg }
      | Lang.Store s -> Lang.Store { s with addr_dep = Some reg }
      | i -> i))
    t

let rename name t = { t with Lang.name = name }

let rename_cfg name p = { p with Cfg.name = name }
