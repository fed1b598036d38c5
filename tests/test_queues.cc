/**
 * @file
 * Unit tests for the bounded request queue and its per-bank index,
 * including a randomized push/pop run against a brute-force model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "controller/queues.hh"

using namespace dsarp;

namespace {

Request
makeReq(std::uint64_t id, RankId r, BankId b, RowId row, Addr addr = 0,
        bool is_write = false)
{
    Request req;
    req.id = id;
    req.isWrite = is_write;
    req.addr = addr;
    req.loc.rank = r;
    req.loc.bank = b;
    req.loc.row = row;
    return req;
}

} // namespace

TEST(RequestQueue, PushPopFifoOrder)
{
    RequestQueue q(4, 2, 8);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(makeReq(1, 0, 0, 0)));
    EXPECT_TRUE(q.push(makeReq(2, 0, 1, 0)));
    EXPECT_EQ(q.size(), 2);
    EXPECT_EQ(q.at(0).id, 1u);
    EXPECT_EQ(q.at(1).id, 2u);
    const Request r = q.pop(0);
    EXPECT_EQ(r.id, 1u);
    EXPECT_EQ(q.at(0).id, 2u);
}

TEST(RequestQueue, CapacityEnforced)
{
    RequestQueue q(2, 2, 8);
    EXPECT_TRUE(q.push(makeReq(1, 0, 0, 0)));
    EXPECT_TRUE(q.push(makeReq(2, 0, 0, 0)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(makeReq(3, 0, 0, 0)));
    EXPECT_EQ(q.size(), 2);
}

TEST(RequestQueue, BankCountsMaintained)
{
    RequestQueue q(16, 2, 8);
    q.push(makeReq(1, 0, 3, 0));
    q.push(makeReq(2, 0, 3, 1));
    q.push(makeReq(3, 1, 3, 2));
    EXPECT_EQ(q.bankCount(0, 3), 2);
    EXPECT_EQ(q.bankCount(1, 3), 1);
    EXPECT_EQ(q.bankCount(0, 4), 0);
    EXPECT_EQ(q.rankCount(0), 2);
    EXPECT_EQ(q.rankCount(1), 1);
    q.pop(0);
    EXPECT_EQ(q.bankCount(0, 3), 1);
}

TEST(RequestQueue, PopMiddlePreservesOrder)
{
    RequestQueue q(8, 1, 8);
    for (std::uint64_t i = 1; i <= 4; ++i)
        q.push(makeReq(i, 0, 0, 0));
    q.pop(1);  // Remove id 2.
    EXPECT_EQ(q.at(0).id, 1u);
    EXPECT_EQ(q.at(1).id, 3u);
    EXPECT_EQ(q.at(2).id, 4u);
}

TEST(RequestQueue, FindAddr)
{
    RequestQueue q(8, 1, 8);
    q.push(makeReq(1, 0, 0, 0, 0x1000));
    q.push(makeReq(2, 0, 1, 0, 0x4000));
    q.push(makeReq(3, 0, 0, 0, 0x2000));
    EXPECT_EQ(q.findAddr(0, 0, 0x2000), 2);
    EXPECT_EQ(q.findAddr(0, 0, 0x3000), -1);
    EXPECT_EQ(q.findAddr(0, 0, 0x4000), -1) << "only the named bank";
    EXPECT_EQ(q.findAddr(0, 1, 0x4000), 1);
}

TEST(RequestQueue, RowCount)
{
    RequestQueue q(8, 2, 8);
    q.push(makeReq(1, 0, 2, 77));
    q.push(makeReq(2, 0, 2, 77));
    q.push(makeReq(3, 0, 2, 78));
    q.push(makeReq(4, 1, 2, 77));
    EXPECT_EQ(q.rowCount(0, 2, 77), 2);
    EXPECT_EQ(q.rowCount(0, 2, 78), 1);
    EXPECT_EQ(q.rowCount(1, 2, 77), 1);
    EXPECT_EQ(q.rowCount(0, 3, 77), 0);
}

TEST(RequestQueue, BankIndexFollowsPops)
{
    RequestQueue q(8, 1, 8);
    q.push(makeReq(1, 0, 2, 10));
    q.push(makeReq(2, 0, 5, 11));
    q.push(makeReq(3, 0, 2, 12));
    q.push(makeReq(4, 0, 5, 13));
    q.pop(0);
    const auto b2 = q.bank(q.bankIndex(0, 2));
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(q.index(b2[0].seq), 1);
    EXPECT_EQ(b2[0].row, 12);
    const auto b5 = q.bank(q.bankIndex(0, 5));
    ASSERT_EQ(b5.size(), 2u);
    EXPECT_EQ(q.index(b5[0].seq), 0);
    EXPECT_EQ(q.index(b5[1].seq), 2);
    EXPECT_LT(b5[0].seq, b5[1].seq);
    q.pop(1);
    EXPECT_EQ(q.occupied(0)[0], std::uint64_t(1) << 5);
}

namespace {

/**
 * Random pushes and pops (biased to fill, then drain) against a plain
 * vector in arrival order: after every operation each bank's list must
 * name exactly its requests, oldest first, with their rows, and every
 * count and lookup must match a scan of the model.
 */
void
randomizedAgainstModel(int capacity, int ranks, int banks,
                       std::uint64_t seed)
{
    RequestQueue q(capacity, ranks, banks);
    std::vector<Request> model;
    Rng rng(seed);
    const int num_banks = ranks * banks;
    std::uint64_t next_id = 1;
    for (int op = 0; op < 20000; ++op) {
        const bool filling = (op / 500) % 2 == 0;
        const bool push = model.empty() ||
            rng.below(100) < (filling ? 70u : 30u);
        if (push) {
            const RankId r = static_cast<RankId>(rng.below(ranks));
            const BankId b = static_cast<BankId>(rng.below(banks));
            const RowId row = static_cast<RowId>(rng.below(4));
            const Addr addr = rng.below(64) * 64;
            const Request req = makeReq(next_id++, r, b, row, addr,
                                        rng.below(2) == 1);
            const bool accepted = q.push(req);
            ASSERT_EQ(accepted, static_cast<int>(model.size()) < capacity);
            if (accepted)
                model.push_back(req);
        } else {
            const int i = static_cast<int>(rng.below(model.size()));
            ASSERT_EQ(q.pop(i).id, model[i].id);
            model.erase(model.begin() + i);
        }

        ASSERT_EQ(q.size(), static_cast<int>(model.size()));
        ASSERT_EQ(q.full(), static_cast<int>(model.size()) == capacity);
        for (int i = 0; i < q.size(); ++i)
            ASSERT_EQ(q.at(i).id, model[i].id);
        for (int idx = 0; idx < num_banks; ++idx) {
            const RankId r = idx / banks;
            const BankId b = idx % banks;
            std::vector<int> want;  // Queue indices, oldest first.
            for (int i = 0; i < static_cast<int>(model.size()); ++i) {
                if (model[i].loc.rank == r && model[i].loc.bank == b)
                    want.push_back(i);
            }
            const auto got = q.bank(idx);
            ASSERT_EQ(got.size(), want.size()) << "bank " << idx;
            for (std::size_t k = 0; k < want.size(); ++k) {
                ASSERT_EQ(q.index(got[k].seq), want[k]) << "bank " << idx;
                ASSERT_EQ(q.seqAt(want[k]), got[k].seq) << "bank " << idx;
                ASSERT_EQ(got[k].row, model[want[k]].loc.row)
                    << "bank " << idx;
                ASSERT_EQ(got[k].addr, model[want[k]].addr)
                    << "bank " << idx;
            }
            ASSERT_EQ(q.bankIndex(r, b), idx);
            ASSERT_EQ(q.bankCount(r, b), static_cast<int>(want.size()));
            ASSERT_EQ((q.occupied(r)[b / 64] >> (b % 64)) & 1,
                      want.empty() ? 0u : 1u);
            for (RowId row = 0; row < 4; ++row) {
                int n = 0;
                for (int i : want)
                    n += model[i].loc.row == row;
                ASSERT_EQ(q.rowCount(r, b, row), n);
            }
            const Addr probe = rng.below(64) * 64;
            int first = -1;
            for (int i : want) {
                if (model[i].addr == probe) {
                    first = i;
                    break;
                }
            }
            ASSERT_EQ(q.findAddr(r, b, probe), first);
        }
        for (RankId r = 0; r < ranks; ++r) {
            int n = 0;
            for (const Request &req : model)
                n += req.loc.rank == r;
            ASSERT_EQ(q.rankCount(r), n);
        }
    }
}

} // namespace

TEST(RequestQueue, RandomizedCapacity1)
{
    randomizedAgainstModel(1, 2, 8, 11);
}

TEST(RequestQueue, RandomizedCapacity64)
{
    randomizedAgainstModel(64, 2, 8, 12);
}

TEST(RequestQueue, RandomizedCapacity128)
{
    randomizedAgainstModel(128, 2, 8, 13);
}

TEST(RequestQueue, RandomizedOverSixtyFourBanks)
{
    // 4 ranks x 80 banks: two occupancy words per rank.
    randomizedAgainstModel(128, 4, 80, 14);
}
