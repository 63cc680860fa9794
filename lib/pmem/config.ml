type memory_order = Tso | Non_tso

type t = {
  memory_order : memory_order;
  read_latency_ns : int;
  write_latency_ns : int;
  l1_hit_ns : int;
  store_ns : int;
  fence_ns : int;
  branch_miss_ns : int;
  mlp_factor : int;
  cache_lines : int;
  max_threads : int;
}

let default =
  {
    memory_order = Tso;
    read_latency_ns = 100;
    write_latency_ns = 100;
    l1_hit_ns = 1;
    store_ns = 1;
    fence_ns = 8;
    branch_miss_ns = 6;
    mlp_factor = 4;
    cache_lines = 16384;
    max_threads = 64;
  }

let pm ?(read_ns = 300) ?(write_ns = 300) () =
  { default with read_latency_ns = read_ns; write_latency_ns = write_ns }

let arm ?(read_ns = 100) ?(write_ns = 700) () =
  {
    default with
    memory_order = Non_tso;
    read_latency_ns = read_ns;
    write_latency_ns = write_ns;
    fence_ns = 20;
    mlp_factor = 2;
  }
