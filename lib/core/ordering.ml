module Barrier = Armb_cpu.Barrier

type t =
  | No_barrier
  | Bar of Barrier.t
  | Ldar_acquire
  | Stlr_release
  | Data_dep
  | Addr_dep
  | Ctrl_dep
  | Ctrl_isb

let to_string = function
  | No_barrier -> "No Barrier"
  | Bar b -> Barrier.to_string b
  | Ldar_acquire -> "LDAR"
  | Stlr_release -> "STLR"
  | Data_dep -> "DATA DEP"
  | Addr_dep -> "ADDR DEP"
  | Ctrl_dep -> "CTRL"
  | Ctrl_isb -> "CTRL+ISB"

let named =
  [
    ("none", No_barrier);
    ("dmb", Bar (Barrier.Dmb Full));
    ("dmb-st", Bar (Barrier.Dmb St));
    ("dmb-ld", Bar (Barrier.Dmb Ld));
    ("dsb", Bar (Barrier.Dsb Full));
    ("dsb-st", Bar (Barrier.Dsb St));
    ("dsb-ld", Bar (Barrier.Dsb Ld));
    ("isb", Bar Barrier.Isb);
    ("ldar", Ldar_acquire);
    ("stlr", Stlr_release);
    ("data-dep", Data_dep);
    ("addr-dep", Addr_dep);
    ("ctrl", Ctrl_dep);
    ("ctrl-isb", Ctrl_isb);
  ]

let of_name s = List.assoc_opt (String.lowercase_ascii s) named

let requires_leading_load = function
  | Ldar_acquire | Data_dep | Addr_dep | Ctrl_dep | Ctrl_isb -> true
  | No_barrier | Bar _ | Stlr_release -> false

let requires_trailing_store = function
  | Stlr_release | Data_dep | Ctrl_dep -> true
  | No_barrier | Bar _ | Ldar_acquire | Addr_dep | Ctrl_isb -> false

let orders_load_load = function
  | Bar b -> Barrier.orders_loads b
  | Ldar_acquire | Addr_dep | Ctrl_isb -> true
  | Data_dep | Ctrl_dep | No_barrier | Stlr_release -> false

let orders_load_store = function
  | Bar b -> Barrier.orders_loads b
  | Ldar_acquire | Addr_dep | Ctrl_isb | Data_dep | Ctrl_dep | Stlr_release -> true
  | No_barrier -> false

let orders_store_store = function
  | Bar b -> Barrier.orders_stores b
  | Stlr_release -> true
  | No_barrier | Ldar_acquire | Data_dep | Addr_dep | Ctrl_dep | Ctrl_isb -> false

let orders_store_load = function
  | Bar (Barrier.Dmb Full) | Bar (Barrier.Dsb Full) -> true
  | Bar _ | No_barrier | Ldar_acquire | Stlr_release | Data_dep | Addr_dep | Ctrl_dep
  | Ctrl_isb ->
    false

let involves_bus = function
  | Bar (Barrier.Dmb Full) | Bar (Barrier.Dmb St) | Bar (Barrier.Dsb _) | Stlr_release -> true
  | Bar (Barrier.Dmb Ld) | Bar Barrier.Isb | No_barrier | Ldar_acquire | Data_dep | Addr_dep
  | Ctrl_dep | Ctrl_isb ->
    false
