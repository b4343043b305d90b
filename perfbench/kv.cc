#include "perfbench/kv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>

#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/crc.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnbench {
namespace {

using vnros::BlockStoreNode;
using vnros::BsNodeId;
using vnros::BsOp;
using vnros::BsPeer;
using vnros::ClusterConfig;
using vnros::ClusterView;
using vnros::ErrorCode;
using vnros::Fd;
using vnros::Kernel;
using vnros::KernelConfig;
using vnros::Network;
using vnros::Pid;
using vnros::Port;
using vnros::Reader;
using vnros::Rng;
using vnros::Sys;
using vnros::SyscallDispatcher;
using vnros::Writer;

constexpr Port kServicePort = 9300;
constexpr usize kNodes = 3;
constexpr usize kReplication = 2;
constexpr u64 kReplyTimeoutTicks = 4000;  // never reached on a healthy run
constexpr u64 kSetupTickBudget = 2'000;
constexpr u64 kQuiesceTickBudget = kReplyTimeoutTicks + 1'000;
constexpr double kSliceSeconds = 0.25;  // traced/untraced alternation period
constexpr usize kValueHeader = 16;      // key u32, writer u32, write number u64
// Each latency percentile rests on at least this many samples per op type.
constexpr usize kMinLatencySamples = 1'000;
// A traced run fails when more of its wall time than this lies outside every
// timed layer: the split would then miss the real cost.
constexpr double kMaxOtherShare = 0.25;

u64 mix(u64 a, u64 b) {
  u64 z = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string key_name(u32 k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", k);
  return buf;
}

// The value of write `wno` to key `k` by `writer`: a header naming all
// three, filler derived from them and the run seed, and a trailing crc32c
// over everything before it. Write 0 is the preloaded value.
std::vector<u8> make_value(usize size, u64 seed, u32 k, u32 writer, u64 wno) {
  std::vector<u8> v(size, 0);
  std::memcpy(v.data(), &k, 4);
  std::memcpy(v.data() + 4, &writer, 4);
  std::memcpy(v.data() + 8, &wno, 8);
  u64 x = mix(mix(seed, k), wno);
  for (usize i = kValueHeader; i + 4 < size; i += 8) {
    x = mix(x, i);
    std::memcpy(v.data() + i, &x, std::min<usize>(8, size - 4 - i));
  }
  u32 crc = vnros::crc32c(std::span<const u8>(v.data(), size - 4));
  std::memcpy(v.data() + size - 4, &crc, 4);
  return v;
}

struct Decoded {
  u32 key = 0;
  u32 writer = 0;
  u64 wno = 0;
};

std::optional<Decoded> decode_value(std::span<const u8> v, usize size) {
  if (v.size() != size) {
    return std::nullopt;
  }
  u32 crc = 0;
  std::memcpy(&crc, v.data() + size - 4, 4);
  if (crc != vnros::crc32c(v.subspan(0, size - 4))) {
    return std::nullopt;
  }
  Decoded d;
  std::memcpy(&d.key, v.data(), 4);
  std::memcpy(&d.writer, v.data() + 4, 4);
  std::memcpy(&d.wno, v.data() + 8, 8);
  return d;
}

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  Host(Network* net, u64 disk_sectors)
      : kernel(config_of(net, disk_sectors)), disp(kernel), pid(spawn(disp)), sys(disp, pid, 0) {}

  static KernelConfig config_of(Network* net, u64 disk_sectors) {
    KernelConfig c;
    c.network = net;
    if (disk_sectors != 0) {
      c.disk_sectors = disk_sectors;
    }
    return c;
  }

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, vnros::kInvalidPid, 0);
    auto p = boot.spawn();
    VNROS_CHECK(p.ok());
    return p.value();
  }
};

// Counts the harness keeps itself; all are deterministic functions of the
// seed and the tick count.
struct Counts {
  u64 acked_ops = 0;
  u64 acked_puts = 0;
  u64 put_value_bytes = 0;
  u64 syscalls = 0;
  u64 recv_calls = 0;
  u64 recv_empty = 0;
  u64 serve_calls = 0;
  u64 serve_idle = 0;
  u64 pump_calls = 0;
};

class Cluster;

// One closed-loop client: connects a stream to every node (and pings each
// once) during setup, then issues one op at a time and waits for its reply.
class Client {
 public:
  Client(Cluster& cl, u32 id, u64 seed) : cl_(cl), id_(id), rng_(seed) {}

  void step();
  bool idle() const { return state_ == State::kIdle; }

 private:
  enum class State { kConnect, kIdle, kWait };
  struct Chan {
    Fd fd = vnros::kInvalidFd;
    std::vector<u8> in;
    std::vector<u8> out;
    bool ponged = false;
  };

  void connect();
  void begin_op();
  void send_frame(usize node, const std::vector<u8>& body);
  void flush(Chan& ch);
  void pump_in(Chan& ch);
  std::optional<std::vector<u8>> pop_frame(Chan& ch);
  void on_reply(Reader& r, ErrorCode err);

  Cluster& cl_;
  u32 id_;
  Rng rng_;
  State state_ = State::kConnect;
  bool connected_ = false;
  std::array<Chan, kNodes> chans_;
  u64 next_rid_ = 1;
  // The op in flight.
  u64 rid_ = 0;
  u64 op_id_ = 0;
  BsOp op_ = BsOp::kGet;
  u32 key_ = 0;
  u64 wno_ = 0;      // put: this write's number; get: oldest acceptable
  usize node_ = 0;   // the key's primary owner
  u64 sent_tick_ = 0;
  u64 put_wno_next_ = 1;
};

class Cluster {
 public:
  Cluster(const KvConfig& config, u64 run_seed, Tracer& tracer, Failures& failures)
      : cfg(config), seed(run_seed), tr(tracer), fails(failures) {
    keys = static_cast<u32>(cfg.clients * cfg.keys_per_client);
    acked.assign(keys, 0);
    issued.assign(keys, 0);
    view.ring = vnros::PlacementRing(32);
    view.replication = kReplication;
    for (usize i = 0; i < kNodes; ++i) {
      hosts.push_back(std::make_unique<Host>(&net, cfg.disk_sectors));
    }
    for (usize i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<BlockStoreNode>(
          hosts[i]->sys, kServicePort, std::vector<BsPeer>{}, [this, i] { pump(i); },
          std::string{}, vnros::BsTransport::kVtp));
      VNROS_CHECK(nodes[i]->init().ok());
      view.ring.add_node(static_cast<BsNodeId>(i));
      view.directory[static_cast<BsNodeId>(i)] = BsPeer{hosts[i]->kernel.net_addr(), kServicePort};
    }
    for (usize i = 0; i < kNodes; ++i) {
      ClusterConfig cc;
      cc.self = static_cast<BsNodeId>(i);
      nodes[i]->configure_cluster(cc, view);
    }
    key_names.reserve(keys);
    primary.reserve(keys);
    for (u32 k = 0; k < keys; ++k) {
      key_names.push_back(key_name(k));
      primary.push_back(view.owners(key_names[k]).front());
    }
    // Preload every key with its owner's write 0 through the local API.
    for (u32 k = 0; k < keys; ++k) {
      auto v = make_value(cfg.value_bytes, seed, k, owner_of(k), 0);
      VNROS_CHECK(nodes[primary[k]]->put(key_names[k], v).ok());
    }
    client_host = std::make_unique<Host>(&net, 0);
    for (u32 c = 0; c < cfg.clients; ++c) {
      clients.push_back(std::make_unique<Client>(*this, c, mix(seed, 0xC1 + c)));
    }
    // Connect: every client opens one stream per node and pings it.
    u64 t = 0;
    while (!all_idle()) {
      if (++t > kSetupTickBudget) {
        fails.fail(cfg.name + ": clients did not connect within the setup budget");
        break;
      }
      tick_once();
    }
    now = 0;
  }

  u32 owner_of(u32 k) const { return static_cast<u32>(k / cfg.keys_per_client); }

  bool all_idle() const {
    return std::all_of(clients.begin(), clients.end(), [](const auto& c) { return c->idle(); });
  }

  void serve(usize j) {
    bool busy = false;
    {
      Span s(tr, Layer::kServe);
      busy = nodes[j]->serve_once();
    }
    ++counts.serve_calls;
    counts.serve_idle += busy ? 0 : 1;
  }

  // The pump each node hands to its replica-ack wait: serve every other node.
  void pump(usize i) {
    Span s(tr, Layer::kPump);
    ++counts.pump_calls;
    for (usize j = 0; j < nodes.size(); ++j) {
      if (j != i) {
        serve(j);
      }
    }
  }

  void tick_once() {
    for (usize j = 0; j < nodes.size(); ++j) {
      serve(j);
    }
    for (auto& h : hosts) {
      Span s(tr, Layer::kVtpTick);
      h->kernel.vtp().tick();
    }
    {
      Span s(tr, Layer::kVtpTick);
      client_host->kernel.vtp().tick();
    }
    for (auto& c : clients) {
      c->step();
    }
    ++now;
  }

  // Every owner's copy of every key must be its writer's last acked put.
  void read_back() {
    for (u32 k = 0; k < keys; ++k) {
      auto expect = make_value(cfg.value_bytes, seed, k, owner_of(k), acked[k]);
      for (BsNodeId o : view.owners(key_names[k])) {
        auto got = nodes[o]->get(key_names[k]);
        ++fails.attempted;
        if (!got.ok() || got.value() != expect) {
          auto d = got.ok() ? decode_value(got.value(), cfg.value_bytes) : std::nullopt;
          fails.fail(cfg.name + ": read-back of " + key_names[k] + " on node " +
                     std::to_string(o) + " is not write " + std::to_string(acked[k]) +
                     (d ? " (holds write " + std::to_string(d->wno) + ")" : " (unreadable)"));
        }
      }
    }
  }

  const KvConfig& cfg;
  u64 seed;
  Tracer& tr;
  Failures& fails;
  u32 keys = 0;
  Network net;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  ClusterView view;
  std::unique_ptr<Host> client_host;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::string> key_names;
  std::vector<BsNodeId> primary;
  std::vector<u64> acked;   // per key: the writer's last acked write number
  std::vector<u64> issued;  // per key: the writer's last issued write number
  Counts counts;
  bool issuing = false;  // clients begin ops only inside a window
  bool record_latency = false;
  std::vector<u32> get_lat;
  std::vector<u32> put_lat;
  u64 now = 0;     // virtual tick
  u64 next_op = 0;  // op ids, assigned as clients begin ops
};

void Client::step() {
  if (state_ == State::kConnect) {
    if (!connected_) {
      connect();
    }
    bool all = true;
    for (Chan& ch : chans_) {
      flush(ch);
      if (!ch.ponged) {
        pump_in(ch);
        if (auto f = pop_frame(ch)) {
          Reader r(*f);
          auto rid = r.get_u64();
          auto err = r.get_u32();
          ch.ponged = rid && err && *err == static_cast<u32>(ErrorCode::kOk);
          if (!ch.ponged) {
            cl_.fails.fail(cl_.cfg.name + ": bad ping reply");
          }
        }
      }
      all = all && ch.ponged;
    }
    if (all) {
      state_ = State::kIdle;
    }
    return;
  }
  if (state_ == State::kIdle) {
    if (cl_.issuing) {
      begin_op();
    }
    return;
  }
  Chan& ch = chans_[node_];
  flush(ch);
  pump_in(ch);
  while (auto f = pop_frame(ch)) {
    Reader r(*f);
    auto rid = r.get_u64();
    auto err = r.get_u32();
    if (!rid || !err) {
      cl_.fails.fail(cl_.cfg.name + ": malformed reply frame");
      state_ = State::kIdle;
      return;
    }
    if (*rid != rid_) {
      continue;  // the late reply of an op that timed out
    }
    on_reply(r, static_cast<ErrorCode>(*err));
    return;
  }
  if (cl_.now - sent_tick_ >= kReplyTimeoutTicks) {
    cl_.fails.fail(cl_.cfg.name + ": op timed out on " + cl_.key_names[key_]);
    state_ = State::kIdle;
  }
}

void Client::connect() {
  connected_ = true;
  for (usize n = 0; n < kNodes; ++n) {
    const BsPeer& peer = cl_.view.directory.at(static_cast<BsNodeId>(n));
    Port sport = static_cast<Port>(20'000 + id_ * 4 + n);
    ++cl_.counts.syscalls;
    auto fd = cl_.client_host->sys.vtp_connect(peer.addr, peer.port, sport);
    VNROS_CHECK(fd.ok());
    chans_[n].fd = fd.value();
    Writer w;
    w.put_u8(static_cast<u8>(BsOp::kPing));
    w.put_u64(next_rid_++);
    w.put_string("");
    send_frame(n, w.bytes());
  }
}

void Client::begin_op() {
  ++cl_.fails.attempted;
  op_id_ = ++cl_.next_op;
  rid_ = next_rid_++;
  Writer w;
  if (rng_.next_below(100) < cl_.cfg.get_pct) {
    op_ = BsOp::kGet;
    u32 universe = rng_.chance(8, 10) ? std::max<u32>(cl_.keys / 5, 1) : cl_.keys;
    key_ = static_cast<u32>(rng_.next_below(universe));
    wno_ = cl_.acked[key_];  // the oldest write this get may return
    w.put_u8(static_cast<u8>(op_));
    w.put_u64(rid_);
    w.put_string(cl_.key_names[key_]);
  } else {
    op_ = BsOp::kPut;
    key_ = static_cast<u32>(id_ * cl_.cfg.keys_per_client +
                            rng_.next_below(cl_.cfg.keys_per_client));
    wno_ = put_wno_next_++;
    cl_.issued[key_] = wno_;
    auto v = make_value(cl_.cfg.value_bytes, cl_.seed, key_, id_, wno_);
    w.put_u8(static_cast<u8>(op_));
    w.put_u64(rid_);
    w.put_string(cl_.key_names[key_]);
    w.put_u64(wno_ + 1);  // write stamp: above the preload's sequence 1
    w.put_bytes(v);
  }
  node_ = cl_.primary[key_];
  sent_tick_ = cl_.now;
  state_ = State::kWait;
  send_frame(node_, w.bytes());
}

void Client::on_reply(Reader& r, ErrorCode err) {
  state_ = State::kIdle;
  const std::string& key = cl_.key_names[key_];
  if (err != ErrorCode::kOk) {
    cl_.fails.fail(cl_.cfg.name + ": " + (op_ == BsOp::kGet ? "get " : "put ") + key +
                   " replied error " + std::to_string(static_cast<u32>(err)));
    return;
  }
  u32 latency = static_cast<u32>(cl_.now - sent_tick_);
  if (op_ == BsOp::kGet) {
    auto bytes = r.get_bytes();
    auto d = bytes ? decode_value(*bytes, cl_.cfg.value_bytes) : std::nullopt;
    if (!d || d->key != key_ || d->writer != cl_.owner_of(key_) || d->wno < wno_ ||
        d->wno > cl_.issued[key_]) {
      cl_.fails.fail(cl_.cfg.name + ": get " + key + " returned " +
                     (d ? "write " + std::to_string(d->wno) + " of writer " +
                              std::to_string(d->writer)
                        : std::string("a corrupt value")) +
                     ", expected a write in [" + std::to_string(wno_) + ", " +
                     std::to_string(cl_.issued[key_]) + "]");
      return;
    }
    if (cl_.record_latency) {
      cl_.get_lat.push_back(latency);
    }
  } else {
    cl_.acked[key_] = wno_;
    ++cl_.counts.acked_puts;
    cl_.counts.put_value_bytes += cl_.cfg.value_bytes;
    if (cl_.record_latency) {
      cl_.put_lat.push_back(latency);
    }
  }
  ++cl_.counts.acked_ops;
}

void Client::send_frame(usize node, const std::vector<u8>& body) {
  Chan& ch = chans_[node];
  u32 len = static_cast<u32>(body.size());
  const u8* lp = reinterpret_cast<const u8*>(&len);
  ch.out.insert(ch.out.end(), lp, lp + 4);
  ch.out.insert(ch.out.end(), body.begin(), body.end());
  flush(ch);
}

void Client::flush(Chan& ch) {
  while (!ch.out.empty()) {
    vnros::Result<u64> sent = ErrorCode::kWouldBlock;
    {
      Span s(cl_.tr, Layer::kClientSys, op_id_);
      sent = cl_.client_host->sys.vtp_send(ch.fd, std::span<const u8>(ch.out));
    }
    ++cl_.counts.syscalls;
    if (!sent.ok() || sent.value() == 0) {
      if (!sent.ok() && sent.error() != ErrorCode::kWouldBlock) {
        cl_.fails.fail(cl_.cfg.name + ": vtp_send failed");
        ch.out.clear();
      }
      return;
    }
    ch.out.erase(ch.out.begin(), ch.out.begin() + static_cast<std::ptrdiff_t>(sent.value()));
  }
}

void Client::pump_in(Chan& ch) {
  vnros::Result<std::vector<u8>> bytes = ErrorCode::kWouldBlock;
  {
    Span s(cl_.tr, Layer::kClientSys, op_id_);
    bytes = cl_.client_host->sys.vtp_recv(ch.fd, 64 * 1024);
  }
  ++cl_.counts.syscalls;
  ++cl_.counts.recv_calls;
  if (bytes.ok()) {
    ch.in.insert(ch.in.end(), bytes.value().begin(), bytes.value().end());
  } else if (bytes.error() == ErrorCode::kWouldBlock) {
    ++cl_.counts.recv_empty;
  } else {
    cl_.fails.fail(cl_.cfg.name + ": vtp_recv failed");
  }
}

std::optional<std::vector<u8>> Client::pop_frame(Chan& ch) {
  if (ch.in.size() < 4) {
    return std::nullopt;
  }
  u32 len = 0;
  std::memcpy(&len, ch.in.data(), 4);
  if (ch.in.size() < 4 + usize{len}) {
    return std::nullopt;
  }
  std::vector<u8> body(ch.in.begin() + 4, ch.in.begin() + 4 + len);
  ch.in.erase(ch.in.begin(), ch.in.begin() + 4 + len);
  return body;
}

// Everything the metrics difference between two instants of a window.
struct Snap {
  ObsSnapshot obs;
  Counts counts;
  u64 dev_writes = 0;
  u64 dev_flushes = 0;
  u64 segments = 0;
  u64 retransmits = 0;
  u64 cwnd_halvings = 0;
  u64 ring_submitted = 0;
  u64 ring_overflows = 0;
  u64 fs_records = 0;
  u64 fs_bytes = 0;
  u64 fs_fsyncs = 0;
  u64 fs_checkpoints = 0;
  u64 replicas_pushed = 0;
  u64 stale_ignored = 0;
};

Snap snap(Cluster& cl) {
  Snap s;
  s.obs = ObsSnapshot::take();
  s.counts = cl.counts;
  for (auto& h : cl.hosts) {
    Kernel& k = h->kernel;
    s.dev_writes += k.disk().stats().writes;
    s.dev_flushes += k.disk().stats().flushes;
    s.ring_submitted += k.rings().submitted();
    s.ring_overflows += k.rings().cq_overflows();
    s.fs_records += kstat(k, "fs/journal_records");
    s.fs_bytes += kstat(k, "fs/journal_bytes");
    s.fs_fsyncs += kstat(k, "fs/fsyncs");
    s.fs_checkpoints += kstat(k, "fs/checkpoints");
  }
  for (Host* h : {cl.hosts[0].get(), cl.hosts[1].get(), cl.hosts[2].get(), cl.client_host.get()}) {
    const auto& v = h->kernel.vtp().stats();
    s.segments += v.segments_tx;
    s.retransmits += v.retransmits;
    s.cwnd_halvings += v.cwnd_halvings;
  }
  for (auto& n : cl.nodes) {
    auto st = n->stats();
    s.replicas_pushed += st.replicas_pushed;
    s.stale_ignored += st.stale_ignored;
  }
  return s;
}

// The tick-clock metrics and counter-derived counts between two snapshots:
// a deterministic function of the seed and the tick count.
struct Measured {
  Metrics virt;    // end-to-end, virtual clock
  Metrics counts;  // per-layer, from counter deltas
  std::string digest;
};

Measured measure(const Cluster& cl, const Snap& a, const Snap& b, u64 ticks) {
  Measured m;
  const Counts& ca = a.counts;
  const Counts& cb = b.counts;
  double ops = static_cast<double>(cb.acked_ops - ca.acked_ops);
  double puts = static_cast<double>(cb.acked_puts - ca.acked_puts);
  double user_bytes = static_cast<double>(cb.put_value_bytes - ca.put_value_bytes);
  auto d = [](u64 x, u64 y) { return static_cast<double>(y - x); };
  std::string gn = std::to_string(cl.get_lat.size()) + " samples";
  std::string pn = std::to_string(cl.put_lat.size()) + " samples";
  m.virt = {
      {"goodput_per_kilotick", ops * 1000.0 / static_cast<double>(ticks), "ops/ktick",
       std::to_string(static_cast<u64>(ops)) + " ops in " + std::to_string(ticks) + " ticks"},
      {"get_p50_ticks", tick_percentile(cl.get_lat, 0.50), "ticks", gn},
      {"get_p99_ticks", tick_percentile(cl.get_lat, 0.99), "ticks", gn},
      {"put_p50_ticks", tick_percentile(cl.put_lat, 0.50), "ticks", pn},
      {"put_p99_ticks", tick_percentile(cl.put_lat, 0.99), "ticks", pn},
      {"device_bytes_per_user_byte",
       ratio(d(a.dev_writes, b.dev_writes) * static_cast<double>(vnros::kSectorSize), user_bytes),
       "B/B", ""},
  };
  vnros::HistogramSnapshot busy = histogram_delta(a.obs, b.obs, "bs/serve_busy");
  vnros::HistogramSnapshot passes = histogram_delta(a.obs, b.obs, "ring/completion_passes");
  m.counts = {
      {"app.pump_calls_per_put", ratio(d(ca.pump_calls, cb.pump_calls), puts), "calls/put", ""},
      {"app.serve_idle_ratio",
       ratio(d(ca.serve_idle, cb.serve_idle), d(ca.serve_calls, cb.serve_calls)), "ratio", ""},
      {"app.serve_busy_mean",
       ratio(static_cast<double>(busy.sum), static_cast<double>(busy.count)), "requests/pass", ""},
      {"app.replicas_pushed_per_put", ratio(d(a.replicas_pushed, b.replicas_pushed), puts),
       "pushes/put", ""},
      {"app.stale_ignored_per_put", ratio(d(a.stale_ignored, b.stale_ignored), puts),
       "writes/put", ""},
      {"kernel.client_syscalls_per_op", ratio(d(ca.syscalls, cb.syscalls), ops), "calls/op", ""},
      {"kernel.client_recv_empty_ratio",
       ratio(d(ca.recv_empty, cb.recv_empty), d(ca.recv_calls, cb.recv_calls)), "ratio", ""},
      {"kernel.ring_submitted_per_op", ratio(d(a.ring_submitted, b.ring_submitted), ops),
       "sqes/op", ""},
      {"kernel.ring_passes_per_op", ratio(static_cast<double>(passes.sum), ops), "passes/op", ""},
      {"kernel.ring_cq_overflows_per_op", ratio(d(a.ring_overflows, b.ring_overflows), ops),
       "cqes/op", ""},
      {"kernel.fs_journal_records_per_put", ratio(d(a.fs_records, b.fs_records), puts),
       "records/put", ""},
      {"kernel.fs_journal_bytes_per_put", ratio(d(a.fs_bytes, b.fs_bytes), puts), "B/put", ""},
      {"kernel.fs_fsyncs_per_put", ratio(d(a.fs_fsyncs, b.fs_fsyncs), puts), "fsyncs/put", ""},
      {"kernel.fs_checkpoints", d(a.fs_checkpoints, b.fs_checkpoints), "count", ""},
      {"net.segments_per_op", ratio(d(a.segments, b.segments), ops), "segments/op", ""},
      {"net.retransmits_per_op", ratio(d(a.retransmits, b.retransmits), ops), "segments/op", ""},
      {"net.cwnd_halvings_per_op", ratio(d(a.cwnd_halvings, b.cwnd_halvings), ops),
       "halvings/op", ""},
      {"hw.dev_writes_per_put", ratio(d(a.dev_writes, b.dev_writes), puts), "sectors/put", ""},
      {"hw.dev_flushes_per_put", ratio(d(a.dev_flushes, b.dev_flushes), puts), "flushes/put",
       ""},
  };
  auto nr = nr_metrics(a.obs, b.obs);
  m.counts.insert(m.counts.end(), nr.begin(), nr.end());
  char buf[64];
  u64 h = 0xCBF29CE484222325ull;
  for (const auto* list : {&m.virt, &m.counts}) {
    for (const Metric& x : *list) {
      std::snprintf(buf, sizeof(buf), "%s=%.17g;", x.name.c_str(), x.value);
      for (const char* p = buf; *p != 0; ++p) {
        h = (h ^ static_cast<u8>(*p)) * 0x100000001B3ull;
      }
    }
  }
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  m.digest = buf;
  return m;
}

struct Slice {
  double seconds = 0;
  u64 ops = 0;
  u64 puts = 0;
  bool traced = false;
};

struct WindowOut {
  Measured measured;
  std::string check_digest;  // digest of the first check_ticks ticks
  std::vector<Slice> slices;
  NsHistogram tick_ns;
};

// Runs the cluster for at least `ticks` ticks and at least `seconds` host
// seconds. The tick-clock metrics and counts cover exactly the first
// `ticks` ticks; `check_ticks` also records the digest of a shorter prefix.
// With `trace`, a host window alternates traced and untraced slices, and a
// run of ticks alone (seconds == 0) is traced throughout.
WindowOut run_window(Cluster& cl, u64 ticks, double seconds, bool trace, u64 check_ticks) {
  WindowOut out;
  Snap a = snap(cl);
  cl.issuing = true;
  cl.record_latency = true;
  cl.get_lat.clear();
  cl.put_lat.clear();
  const u64 slice_ns = static_cast<u64>(kSliceSeconds * 1e9);
  const u64 window_ns = static_cast<u64>(seconds * 1e9);
  bool traced = trace && window_ns == 0;
  cl.tr.set_on(traced);
  u64 start = now_ns();
  u64 slice_start = start;
  Counts slice_counts = cl.counts;
  auto close_slice = [&](u64 t) {
    out.slices.push_back(Slice{static_cast<double>(t - slice_start) * 1e-9,
                               cl.counts.acked_ops - slice_counts.acked_ops,
                               cl.counts.acked_puts - slice_counts.acked_puts, traced});
    slice_start = t;
    slice_counts = cl.counts;
  };
  for (u64 tick = 0;; ++tick) {
    if (tick == check_ticks) {
      out.check_digest = measure(cl, a, snap(cl), check_ticks).digest;
    }
    if (tick == ticks) {
      out.measured = measure(cl, a, snap(cl), ticks);
      cl.record_latency = false;
    }
    u64 t = now_ns();
    if (tick >= ticks && t - start >= window_ns) {
      close_slice(t);
      break;
    }
    if (window_ns > 0 && t - slice_start >= slice_ns) {
      close_slice(t);
      if (trace) {
        traced = !traced;
        cl.tr.set_on(traced);
      }
    }
    cl.tick_once();
    if (traced) {
      out.tick_ns.record(now_ns() - t);
    }
  }
  cl.tr.set_on(false);
  return out;
}

void quiesce(Cluster& cl) {
  cl.issuing = false;
  for (u64 t = 0; !cl.all_idle(); ++t) {
    if (t > kQuiesceTickBudget) {
      cl.fails.fail(cl.cfg.name + ": clients did not quiesce");
      return;
    }
    cl.tick_once();
  }
}

}  // namespace

std::optional<KvConfig> kv_config(std::string_view name) {
  KvConfig c;
  c.name = std::string(name);
  if (name == "kv_fanin_small") {
    c.clients = 256;
    c.get_pct = 95;
    c.value_bytes = 128;
    c.keys_per_client = 16;
    c.disk_sectors = 16'384;  // 8 MiB per node: 2 MiB checkpoint area
    c.measured_ticks = 600;
    return c;
  }
  if (name == "kv_put_large") {
    c.clients = 8;
    c.get_pct = 10;
    c.value_bytes = 4096;
    c.keys_per_client = 128;
    c.disk_sectors = 32'768;  // 16 MiB per node: 4 MiB checkpoint area, 12 MiB journal
    c.measured_ticks = 6000;
    return c;
  }
  return std::nullopt;
}

KvResult run_kv(const KvConfig& cfg, const KvOptions& opt) {
  KvResult res;
  res.tracer = Tracer(opt.keep_spans);
  std::vector<double> setup_times;
  std::unique_ptr<Cluster> cl;
  std::string probe_digest;
  const u64 probe_ticks = cfg.measured_ticks / 3;
  for (usize s = 0; s < std::max<usize>(opt.setups, 1); ++s) {
    cl.reset();
    u64 t0 = now_ns();
    cl = std::make_unique<Cluster>(cfg, opt.seed, res.tracer, res.failures);
    setup_times.push_back(seconds_since(t0));
    if (res.failures.failed > 0) {
      return res;
    }
    if (opt.replay_check && s + 1 < opt.setups && probe_digest.empty()) {
      probe_digest = run_window(*cl, probe_ticks, 0, false, probe_ticks).measured.digest;
    }
  }
  const double setup_s = median(setup_times);

  res.origin_ns = now_ns();
  WindowOut w = run_window(*cl, cfg.measured_ticks, opt.seconds, opt.trace, probe_ticks);
  for (const auto* lat : {&cl->get_lat, &cl->put_lat}) {
    if (lat->size() < kMinLatencySamples) {
      res.failures.fail(cfg.name + ": only " + std::to_string(lat->size()) + " " +
                        (lat == &cl->get_lat ? "get" : "put") +
                        " latency samples in the measured ticks, fewer than " +
                        std::to_string(kMinLatencySamples));
    }
  }
  if (!probe_digest.empty() && probe_digest != w.check_digest) {
    res.failures.fail(cfg.name + ": replay check failed: the same seed gave tick-clock digest " +
                      probe_digest + " then " + w.check_digest + " over " +
                      std::to_string(probe_ticks) + " ticks");
  }
  quiesce(*cl);
  cl->read_back();

  double all_s = 0;
  double traced_s = 0;
  double untraced_s = 0;
  u64 all_ops = 0;
  u64 traced_ops = 0;
  u64 untraced_ops = 0;
  u64 traced_puts = 0;
  for (const Slice& s : w.slices) {
    all_s += s.seconds;
    all_ops += s.ops;
    (s.traced ? traced_s : untraced_s) += s.seconds;
    (s.traced ? traced_ops : untraced_ops) += s.ops;
    traced_puts += s.traced ? s.puts : 0;
  }

  std::string setups_note = "median of " + std::to_string(setup_times.size()) + " setups";
  res.e2e.push_back({"setup_s", setup_s, "s", setups_note});
  res.e2e.push_back({"ops_per_s", ratio(static_cast<double>(all_ops), all_s), "ops/s",
                     std::to_string(all_ops) + " acked ops in " + std::to_string(all_s) + " s"});
  res.e2e.insert(res.e2e.end(), w.measured.virt.begin(), w.measured.virt.end());

  res.layers.insert(res.layers.end(), w.measured.counts.begin(), w.measured.counts.end());
  if (opt.trace) {
    const Tracer& tr = res.tracer;
    double tops = static_cast<double>(traced_ops);
    auto ns = [&](Layer l) { return static_cast<double>(tr.outer_ns[static_cast<usize>(l)]); };
    double wall_ns = traced_s * 1e9;
    double other_ns = wall_ns - static_cast<double>(tr.top_ns);
    res.layers.push_back({"app.serve_ns_per_op", ratio(ns(Layer::kServe), tops), "ns/op"});
    const double puts = static_cast<double>(traced_puts);
    res.layers.push_back({"app.pump_ns_per_put", ratio(ns(Layer::kPump), puts), "ns/put"});
    res.layers.push_back(
        {"kernel.client_syscall_ns_per_op", ratio(ns(Layer::kClientSys), tops), "ns/op"});
    res.layers.push_back({"net.vtp_tick_ns_per_op", ratio(ns(Layer::kVtpTick), tops), "ns/op"});
    res.layers.push_back({"harness.other_ns_per_op", ratio(other_ns, tops), "ns/op"});
    res.layers.push_back({"harness.other_share", ratio(other_ns, wall_ns), "ratio"});
    res.layers.push_back({"harness.tick_p50_us", w.tick_ns.percentile(0.50) / 1e3, "us"});
    res.layers.push_back({"harness.tick_p99_us", w.tick_ns.percentile(0.99) / 1e3, "us"});
    if (untraced_s > 0 && traced_s > 0) {
      res.tracing_overhead = 1.0 - ratio(tops, traced_s) /
                                       ratio(static_cast<double>(untraced_ops), untraced_s);
    }
    char line[512];
    std::snprintf(line, sizeof(line),
                  "coverage %s: serve %.0f (pump inside it %.0f) + vtp tick %.0f + client "
                  "syscalls %.0f + other %.0f = %.0f ns/op wall, over %llu traced ops in %.2f s",
                  cfg.name.c_str(), ratio(ns(Layer::kServe), tops), ratio(ns(Layer::kPump), tops),
                  ratio(ns(Layer::kVtpTick), tops), ratio(ns(Layer::kClientSys), tops),
                  ratio(other_ns, tops), ratio(wall_ns, tops),
                  static_cast<unsigned long long>(traced_ops), traced_s);
    res.notes.emplace_back(line);
    if (ratio(other_ns, wall_ns) > kMaxOtherShare) {
      res.failures.fail(cfg.name + ": the timed layers miss " +
                        std::to_string(ratio(other_ns, wall_ns)) +
                        " of the traced wall time, more than the ceiling " +
                        std::to_string(kMaxOtherShare));
    }
  }
  res.notes.push_back(cfg.name + ": tick-clock digest " + w.measured.digest + " over " +
                      std::to_string(cfg.measured_ticks) + " ticks; " +
                      std::to_string(probe_ticks) + "-tick prefix " + w.check_digest +
                      (probe_digest.empty() ? std::string(" (no replay probe)")
                                            : ", replay probe " + probe_digest));
  return res;
}

}  // namespace vnbench
