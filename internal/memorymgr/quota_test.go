package memorymgr

import (
	"errors"
	"testing"

	"metadataflow/internal/sim"
)

func TestTenantQuotasReserveRelease(t *testing.T) {
	q := NewTenantQuotas(100)
	if err := q.Reserve("a", 60); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := q.Reserve("a", 40); err != nil {
		t.Fatalf("reserve to exactly the quota: %v", err)
	}
	err := q.Reserve("a", 1)
	if err == nil {
		t.Fatal("over-quota reserve succeeded")
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota error is %T, want *QuotaError", err)
	}
	if qe.Tenant != "a" || qe.Want != 1 || qe.Reserved != 100 || qe.Quota != 100 {
		t.Fatalf("quota error fields: %+v", qe)
	}
	if err := q.Reserve("b", -1); err == nil {
		t.Fatal("negative reserve succeeded")
	}
	// Tenants are isolated: b has its own full quota.
	if err := q.Reserve("b", 100); err != nil {
		t.Fatalf("tenant b reserve: %v", err)
	}
	q.Release("a", 50)
	if got := q.Reserved("a"); got != 50 {
		t.Fatalf("reserved after release = %d, want 50", got)
	}
	if err := q.Reserve("a", 50); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	if got := q.Peak("a"); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
}

func TestTenantQuotasReleaseClamps(t *testing.T) {
	q := NewTenantQuotas(10)
	if err := q.Reserve("a", 4); err != nil {
		t.Fatal(err)
	}
	q.Release("a", 99) // double/over-release must not mint quota
	if got := q.Reserved("a"); got != 0 {
		t.Fatalf("reserved after over-release = %d, want 0", got)
	}
	if err := q.Reserve("a", 10); err != nil {
		t.Fatalf("full reserve after clamped release: %v", err)
	}
	if err := q.Reserve("a", 1); err == nil {
		t.Fatal("quota not enforced after clamped release")
	}
}

func TestTenantQuotasDeterministicTenantOrder(t *testing.T) {
	q := NewTenantQuotas(sim.Bytes(1) << 30)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := q.Reserve(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := q.Tenants()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("tenants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tenants = %v, want %v", got, want)
		}
	}
}

func TestTenantQuotasRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTenantQuotas(0) did not panic")
		}
	}()
	NewTenantQuotas(0)
}
