package social

import (
	"errors"
	"fmt"
	"time"

	"cachegenie/internal/orm"
)

// PageType identifies one of the workload's page loads.
type PageType int

// Page types (paper §5.1: four actions plus login/logout bookkeeping).
const (
	PageLogin PageType = iota
	PageLogout
	PageLookupBM
	PageLookupFBM
	PageCreateBM
	PageAcceptFR
)

var pageNames = map[PageType]string{
	PageLogin: "Login", PageLogout: "Logout",
	PageLookupBM: "LookupBM", PageLookupFBM: "LookupFBM",
	PageCreateBM: "CreateBM", PageAcceptFR: "AcceptFR",
}

// String implements fmt.Stringer.
func (p PageType) String() string { return pageNames[p] }

// PageTypes lists all page types in display order.
func PageTypes() []PageType {
	return []PageType{PageLogin, PageLogout, PageLookupBM, PageLookupFBM, PageCreateBM, PageAcceptFR}
}

// detailFanout bounds how many list items a page renders details for
// (bookmark rows, save counts); real pages paginate the same way.
const detailFanout = 5

// pageChrome declares on w the queries every page shares: the signed-in user,
// her profile, and the header counters (friends, pending invitations,
// bookmarks) plus the latest wall posts widget. This mirrors how Pinax
// templates hit the ORM on every request — except that Pinax issues them one
// by one, and here they all depend on uid alone, so they open the page's first
// wave; the caller adds whatever else it can ask knowing only uid, then runs
// it. The wave fails if the user does not exist or has more than one
// profile; having none is fine.
func (a *App) pageChrome(w *orm.Wave, uid int64) {
	w.Get(a.Reg.Objects("User").Filter("id", uid))
	w.OneOrNone(a.Reg.Objects("Profile").Filter("user_id", uid))
	w.Count(a.Reg.Objects("Friendship").Filter("from_user_id", uid))
	w.Count(a.Reg.Objects("FriendInvitation").
		Filter("to_user_id", uid).Filter("status", InviteStatusPending))
	w.Count(a.Reg.Objects("BookmarkInstance").Filter("user_id", uid))
	w.All(a.Reg.Objects("WallPost").Filter("user_id", uid).
		OrderBy("-date_posted").Limit(detailFanout))
}

// Login renders the login landing page and records the login (a write, so
// cached configurations pay trigger overhead here — Table 2 shows Login
// slower with caching than without).
func (a *App) Login(uid int64) error {
	w := a.Reg.Wave()
	a.pageChrome(w, uid)
	// Pending invitations preview.
	w.All(a.Reg.Objects("FriendInvitation").
		Filter("to_user_id", uid).Filter("status", InviteStatusPending))
	if err := w.Run(); err != nil {
		return fmt.Errorf("page for user %d: %w", uid, err)
	}
	_, err := a.Reg.Objects("User").Filter("id", uid).
		Update(orm.Fields{"last_login": a.clock()})
	return err
}

// Logout records the logout.
func (a *App) Logout(uid int64) error {
	if _, err := a.Reg.Objects("User").Filter("id", uid).Get(); err != nil {
		return err
	}
	_, err := a.Reg.Objects("User").Filter("id", uid).
		Update(orm.Fields{"last_login": a.clock()})
	return err
}

// LookupBM renders "my bookmarks": the user's saved bookmarks with the
// bookmark details and global save counts (read-only page). Two waves: the
// chrome and the list are keyed by uid, the details by the list's rows.
func (a *App) LookupBM(uid int64) error {
	w := a.Reg.Wave()
	a.pageChrome(w, uid)
	instances := w.All(a.Reg.Objects("BookmarkInstance").
		Filter("user_id", uid).OrderBy("-saved_at").Limit(TopKBookmarks))
	if err := w.Run(); err != nil {
		return fmt.Errorf("page for user %d: %w", uid, err)
	}
	details := a.Reg.Wave()
	for i, inst := range *instances {
		if i >= detailFanout {
			break
		}
		bid := inst.Int("bookmark_id")
		details.OneOrNone(a.Reg.Objects("Bookmark").Filter("id", bid)) // may have been deleted
		details.Count(a.Reg.Objects("BookmarkInstance").Filter("bookmark_id", bid))
	}
	return details.Run()
}

// LookupFBM renders "my friends' bookmarks" — the paper's expensive join
// page, served by the friend_bookmarks LinkQuery when caching is on.
func (a *App) LookupFBM(uid int64) error {
	w := a.Reg.Wave()
	a.pageChrome(w, uid)
	friendBMs := w.All(a.Reg.Objects("BookmarkInstance").
		Via("Friendship", "from_user_id", "to_user_id", "user_id").
		Filter("from_user_id", uid))
	if err := w.Run(); err != nil {
		return fmt.Errorf("page for user %d: %w", uid, err)
	}
	details := a.Reg.Wave()
	for i, inst := range *friendBMs {
		if i >= detailFanout {
			break
		}
		details.OneOrNone(a.Reg.Objects("Bookmark").Filter("id", inst.Int("bookmark_id")))
	}
	return details.Run()
}

// CreateBM saves a new bookmark instance for the user. seq must be unique
// across the run when newURL is true (the workload driver supplies it).
func (a *App) CreateBM(uid int64, seq int64, newURL bool) error {
	w := a.Reg.Wave()
	a.pageChrome(w, uid)
	if err := w.Run(); err != nil {
		return fmt.Errorf("page for user %d: %w", uid, err)
	}
	var bookmarkID int64
	if newURL {
		b, err := a.Reg.Insert("Bookmark", orm.Fields{
			"url":         fmt.Sprintf("https://example.com/u/%d/%d", uid, seq),
			"description": "user-added bookmark",
			"added_at":    a.clock(),
		})
		if err != nil {
			return err
		}
		bookmarkID = b.ID()
	} else {
		// Re-save an existing bookmark (the common Pinax flow): look it up
		// by URL, which is an uncached query pattern, then reference it.
		url := fmt.Sprintf("https://example.com/page/%d", 1+seq%97)
		b, err := a.Reg.Objects("Bookmark").Filter("url", url).Get()
		if errors.Is(err, orm.ErrNotFound) {
			b, err = a.Reg.Insert("Bookmark", orm.Fields{
				"url": url, "description": "re-added", "added_at": a.clock(),
			})
		}
		if err != nil {
			return err
		}
		bookmarkID = b.ID()
	}
	if _, err := a.Reg.Insert("BookmarkInstance", orm.Fields{
		"bookmark_id": bookmarkID,
		"user_id":     uid,
		"note":        "added from CreateBM",
		"saved_at":    a.clock(),
	}); err != nil {
		return err
	}
	// Post-save the page re-renders the user's bookmark list.
	_, err := a.Reg.Objects("BookmarkInstance").
		Filter("user_id", uid).OrderBy("-saved_at").Limit(TopKBookmarks).All()
	return err
}

// AcceptFR accepts the user's oldest pending friend invitation: the
// invitation flips to accepted and a symmetric friendship pair is inserted.
// To keep the invitation pool steady over long runs it also sends a new
// invitation onward (to the accepted friend's id + 1, wrapping).
func (a *App) AcceptFR(uid int64) error {
	w := a.Reg.Wave()
	a.pageChrome(w, uid)
	invites := w.All(a.Reg.Objects("FriendInvitation").
		Filter("to_user_id", uid).Filter("status", InviteStatusPending))
	if err := w.Run(); err != nil {
		return fmt.Errorf("page for user %d: %w", uid, err)
	}
	if len(*invites) == 0 {
		// Nothing to accept; the page still rendered (reads above).
		return nil
	}
	inv := (*invites)[0]
	from := inv.Int("from_user_id")
	if _, err := a.Reg.Objects("FriendInvitation").Filter("id", inv.ID()).
		Update(orm.Fields{"status": InviteStatusAccepted}); err != nil {
		return err
	}
	now := a.clock()
	if _, err := a.Reg.Insert("Friendship", orm.Fields{
		"from_user_id": uid, "to_user_id": from, "since": now,
	}); err != nil {
		return err
	}
	if _, err := a.Reg.Insert("Friendship", orm.Fields{
		"from_user_id": from, "to_user_id": uid, "since": now,
	}); err != nil {
		return err
	}
	if a.NumUsers > 0 {
		next := from%int64(a.NumUsers) + 1
		if next != uid {
			if _, err := a.Reg.Insert("FriendInvitation", orm.Fields{
				"from_user_id": uid, "to_user_id": next,
				"message": "friend of a friend", "status": InviteStatusPending,
				"sent_at": now,
			}); err != nil {
				return err
			}
		}
	}
	// Re-render the friends list and its counter.
	rerender := a.Reg.Wave()
	rerender.All(a.Reg.Objects("Friendship").Filter("from_user_id", uid))
	rerender.Count(a.Reg.Objects("Friendship").Filter("from_user_id", uid))
	return rerender.Run()
}

// RunPage dispatches a page load by type.
func (a *App) RunPage(p PageType, uid int64, seq int64) error {
	switch p {
	case PageLogin:
		return a.Login(uid)
	case PageLogout:
		return a.Logout(uid)
	case PageLookupBM:
		return a.LookupBM(uid)
	case PageLookupFBM:
		return a.LookupFBM(uid)
	case PageCreateBM:
		return a.CreateBM(uid, seq, seq%5 == 0)
	case PageAcceptFR:
		return a.AcceptFR(uid)
	}
	return fmt.Errorf("social: unknown page type %d", int(p))
}

// SetClock overrides the app's time source (tests).
func (a *App) SetClock(fn func() time.Time) { a.clock = fn }
